"""Directed systems of groups and polygroupoids with projections,
induced homomorphisms, and finite-stage inverse limits.

The index poset is finite and directed, so it has a greatest node and
every thread through the system is pinned by its component there; the
profinite story survives as the invariant that enlarging a chain
refines the limit along surjections.  Projection maps are stored
element by element, because the coherence checks (functoriality,
fiber preservation, commuting with the projections pi, and the
Q-image law) all want total enumeration.

Key directions, chosen once: u <= v means node v is the finer stage,
and both the group maps chi[(u, v)]: G_v -> G_u and the element maps
rho[(u, v)] go downward from v to u.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .algebra import FinAbelianGroup, GroupHom
from .binding import ActionTable, ExtractionError
from .polygroupoid import (
    AxiomCheck,
    AxiomReport,
    Polygroupoid,
    _config_key,
    first_failure,
    from_json_dict,
    standard_with_coordinates,
)


class TowerError(ValueError):
    def __init__(self, stage, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"{stage}: {witness}")


@dataclass(frozen=True)
class DirectedPoset:
    nodes: tuple
    leq: frozenset

    def __post_init__(self):
        nodes = set(self.nodes)
        for u, v in self.leq:
            if u not in nodes or v not in nodes:
                raise ValueError(f"relation ({u}, {v}) mentions unknown nodes")
        for u in nodes:
            if (u, u) not in self.leq:
                raise ValueError(f"order is not reflexive at {u}")
        for u, v in self.leq:
            if u != v and (v, u) in self.leq:
                raise ValueError(f"order is not antisymmetric on ({u}, {v})")
        for u, v in self.leq:
            for w in nodes:
                if (v, w) in self.leq and (u, w) not in self.leq:
                    raise ValueError(f"order is not transitive through ({u}, {v}, {w})")
        for u, v in itertools.combinations(sorted(nodes), 2):
            if not any((u, w) in self.leq and (v, w) in self.leq for w in nodes):
                raise ValueError(f"nodes {u} and {v} have no upper bound")

    def le(self, u, v):
        return (u, v) in self.leq

    def strict_pairs(self):
        return sorted((u, v) for u, v in self.leq if u != v)

    def greatest(self):
        """A finite directed poset has a maximum; fold upper bounds."""
        top = self.nodes[0]
        for u in self.nodes[1:]:
            if self.le(top, u):
                top = u
            elif not self.le(u, top):
                top = next(
                    w for w in self.nodes if self.le(top, w) and self.le(u, w)
                )
        return top

    @classmethod
    def chain(cls, names):
        names = list(names)
        leq = {
            (names[i], names[j]) for i in range(len(names)) for j in range(i, len(names))
        }
        return cls(tuple(names), frozenset(leq))


@dataclass(frozen=True, eq=False)
class GroupTower:
    """Groups per node with downward surjections chi[(u, v)]: G_v -> G_u
    for u <= v; identity maps are implicit."""

    poset: DirectedPoset
    groups: dict
    homs: dict

    def hom(self, u, v) -> GroupHom:
        if u == v:
            return GroupHom.identity(self.groups[u])
        return self.homs[(u, v)]


@dataclass(frozen=True, eq=False)
class PolyTower:
    """A polygroupoid per node over a shared vertex set, with downward
    top-sort projection maps rho[(u, v)] for u <= v."""

    poset: DirectedPoset
    nodes: dict
    rho: dict

    def project(self, u, v, w):
        if u == v:
            return w
        return self.rho[(u, v)][w]


@dataclass(frozen=True)
class Thread:
    """One group element per node, compatible with every chi."""

    components: tuple  # ((node, GroupElement), ...) sorted by node


def check_tower(t) -> AxiomReport:
    if isinstance(t, GroupTower):
        return _check_group_tower(t)
    if isinstance(t, PolyTower):
        return _check_poly_tower(t)
    raise TypeError("expected a GroupTower or PolyTower")


def _check_group_tower(t: GroupTower) -> AxiomReport:
    def mistyped():
        for u, v in t.poset.strict_pairs():
            hom = t.homs.get((u, v))
            if hom is None or hom.source != t.groups[v] or hom.target != t.groups[u]:
                yield {"edge": [u, v], "reason": "missing or mistyped hom"}

    def not_surjective():
        for u, v in t.poset.strict_pairs():
            if not t.homs[(u, v)].is_surjective():
                yield {"edge": [u, v]}

    def not_functorial():
        for u in t.poset.nodes:
            if t.hom(u, u).matrix != GroupHom.identity(t.groups[u]).matrix:
                yield {"node": u}
        for u, v in t.poset.strict_pairs():
            for w in t.poset.nodes:
                if t.poset.le(v, w) and v != w:
                    lhs = t.hom(u, v).compose(t.hom(v, w))
                    if lhs != t.hom(u, w):
                        yield {"chain": [u, v, w]}

    typing = first_failure("hom-typing", mistyped())
    if not typing.passed:
        skipped = [AxiomCheck(axiom, False, {"skipped": True}) for axiom in ("surjectivity", "functoriality")]
        return AxiomReport((typing, *skipped))
    return AxiomReport(
        (
            typing,
            first_failure("surjectivity", not_surjective()),
            first_failure("functoriality", not_functorial()),
        )
    )


def _check_poly_tower(t: PolyTower) -> AxiomReport:
    arities = {h.arity for h in t.nodes.values()}
    vertex_sets = {h.vertices for h in t.nodes.values()}
    shape_ok = len(arities) == 1 and len(vertex_sets) == 1
    shape = AxiomCheck(
        "shared-shape",
        shape_ok,
        None if shape_ok else {"arities": sorted(arities), "vertex_sets": len(vertex_sets)},
    )
    if not shape_ok:
        return AxiomReport((shape,))

    def not_fiber_surjections():
        for u, v in t.poset.strict_pairs():
            rho = t.rho.get((u, v))
            hv, hu = t.nodes[v], t.nodes[u]
            if rho is None:
                yield {"edge": [u, v], "reason": "missing rho"}
            tops_v = [w for c in hv.top_configs for w in hv.fiber(c)]
            if sorted(rho) != sorted(tops_v):
                yield {"edge": [u, v], "reason": "rho domain is not the top sort"}
            for w, img in sorted(rho.items()):
                if img not in hu.config_of or hu.config_of[img] != hv.config_of[w]:
                    yield {"edge": [u, v], "element": w, "reason": "not fiber-preserving"}
            for c in hv.top_configs:
                if {rho[w] for w in hv.fiber(c)} != set(hu.fiber(c)):
                    yield {"edge": [u, v], "config": list(c), "reason": "not surjective on fiber"}

    def pi_mismatches():
        for u, v in t.poset.strict_pairs():
            hv, hu = t.nodes[v], t.nodes[u]
            for w in sorted(t.rho[(u, v)]):
                if hu.pi[t.rho[(u, v)][w]] != hv.pi[w]:
                    yield {"edge": [u, v], "element": w}

    def not_functorial():
        for u, v in t.poset.strict_pairs():
            for w in t.poset.nodes:
                if t.poset.le(v, w) and v != w:
                    for x in sorted(t.rho[(v, w)]):
                        if t.rho[(u, v)][t.rho[(v, w)][x]] != t.rho[(u, w)][x]:
                            yield {"chain": [u, v, w], "element": x}

    def q_images_outside_q():
        for u, v in t.poset.strict_pairs():
            hv, hu = t.nodes[v], t.nodes[u]
            rho = t.rho[(u, v)]
            for tup in sorted(hv.q):
                image = tuple(rho[w] for w in tup)
                if image not in hu.q:
                    yield {"edge": [u, v], "tuple": list(tup), "image": list(image)}

    surjections = first_failure("rho-fiber-surjections", not_fiber_surjections())
    if not surjections.passed:
        return AxiomReport((shape, surjections))
    return AxiomReport(
        (
            shape,
            surjections,
            first_failure("rho-commutes-with-pi", pi_mismatches()),
            first_failure("rho-functoriality", not_functorial()),
            first_failure("q-coherence", q_images_outside_q()),
        )
    )


def group_threads(t: GroupTower):
    """Every thread, as a Thread; components are pinned by the greatest
    node, and compatibility with every edge is still verified."""
    top = t.poset.greatest()
    out = []
    for gamma in t.groups[top].elements():
        comp = {}
        for u in t.poset.nodes:
            comp[u] = t.hom(u, top)(gamma)
        for u, v in t.poset.strict_pairs():
            if t.hom(u, v)(comp[v]) != comp[u]:
                raise TowerError(
                    "thread-compatibility", {"edge": [u, v], "top_element": list(gamma.coords)}
                )
        out.append(Thread(tuple(sorted(comp.items()))))
    return out


def inverse_limit(t: GroupTower):
    """(limit group, projections): the subgroup of the product cut out
    by the threads, which the greatest node parameterizes."""
    top = t.poset.greatest()
    group = t.groups[top]
    projections = {}
    for u in t.poset.nodes:
        projections[u] = t.hom(u, top)
        if not projections[u].is_surjective():
            raise TowerError("projection-surjectivity", {"node": u})
    for u, v in t.poset.strict_pairs():
        if t.hom(u, v).compose(projections[v]) != projections[u]:
            raise TowerError("projection-compatibility", {"edge": [u, v]})
    return group, projections


def induced_hom(t: PolyTower, u, v, acts) -> GroupHom:
    """The group map chi with chi(gamma).rho(w) = rho(gamma.w), checked
    for independence of the witness w across every fiber."""
    if not t.poset.le(u, v):
        raise ValueError("u must lie below v")
    if u == v:
        return GroupHom.identity(acts[u].group)
    act_v: ActionTable = acts[v]
    act_u: ActionTable = acts[u]
    hu = t.nodes[u]
    images = {}
    for gamma in act_v.group.elements():
        value = None
        for config in sorted(act_v.action):
            for w in sorted(act_v.action[config]):
                moved = t.project(u, v, act_v.action[config][w][gamma.coords])
                base = t.project(u, v, w)
                delta = act_u.difference(config, base, moved)
                if delta is None:
                    raise TowerError(
                        "induced-hom", {"edge": [u, v], "element": w, "reason": "no matching gamma"}
                    )
                if value is None:
                    value = delta
                    first = (config, w)
                elif delta != value:
                    raise TowerError(
                        "induced-hom",
                        {
                            "edge": [u, v],
                            "witnesses": [list(first), [list(config), w]],
                            "values": [list(value.coords), list(delta.coords)],
                        },
                    )
        images[gamma] = value
    gens = []
    for i in range(act_v.group.ngens):
        coords = [0] * act_v.group.ngens
        coords[i] = 1
        gens.append(images[act_v.group.element(coords)])
    matrix = tuple(
        tuple(g.coords[i] for g in gens) for i in range(act_u.group.ngens)
    )
    hom = GroupHom(act_v.group, act_u.group, matrix)
    for gamma, img in images.items():
        if hom(gamma) != img:
            raise TowerError(
                "induced-hom", {"edge": [u, v], "reason": "images are not additive"}
            )
    return hom


def group_tower_from_poly(t: PolyTower, acts) -> GroupTower:
    groups = {u: acts[u].group for u in t.poset.nodes}
    homs = {}
    for u, v in t.poset.strict_pairs():
        homs[(u, v)] = induced_hom(t, u, v, acts)
    return GroupTower(t.poset, groups, homs)


def standard_tower(groups, surjections, vertices, arity) -> PolyTower:
    """Chain of standard models with coordinate projections.

    groups are listed finest first: surjections[i] maps groups[i] onto
    groups[i+1], and node 0 ends up the greatest element of the poset.
    """
    groups = list(groups)
    surjections = list(surjections)
    if len(surjections) != len(groups) - 1:
        raise ValueError("need one surjection per consecutive pair")
    for i, s in enumerate(surjections):
        if s.source != groups[i] or s.target != groups[i + 1]:
            raise ValueError(f"surjection {i} does not map groups[{i}] to groups[{i + 1}]")
        if not s.is_surjective():
            raise ValueError(f"map {i} is not surjective")
    names = [f"t{i}" for i in range(len(groups))]
    # node t_i <= t_j when i >= j: t0 (finest) is the maximum
    leq = {
        (names[i], names[j]) for i in range(len(names)) for j in range(i + 1)
    }
    poset = DirectedPoset(tuple(names), frozenset(leq))

    built = {}
    coords = {}
    for name, g in zip(names, groups):
        built[name], coords[name] = standard_with_coordinates(g, vertices, arity)

    def chain_map(i, j):
        """groups[i] -> groups[j] for i <= j by composing the chain."""
        hom = GroupHom.identity(groups[i])
        for k in range(i, j):
            hom = surjections[k].compose(hom)
        return hom

    rho = {}
    for i in range(len(groups)):
        hu = built[names[i]]
        by_coords = {
            c: {coords[names[i]][w]: w for w in hu.fiber(c)} for c in hu.top_configs
        }
        for j in range(i):
            # edge (t_i, t_j) with t_i <= t_j: project node j down to node i
            hom = chain_map(j, i)
            hv = built[names[j]]
            mapping = {}
            for c in hv.top_configs:
                for w in hv.fiber(c):
                    mapping[w] = by_coords[c][hom(coords[names[j]][w])]
            rho[(names[i], names[j])] = mapping
    return PolyTower(poset, built, rho)


def cyclic_chain_tower(orders, vertices, arity):
    """Standard tower over cyclic groups Z/d_0 -> Z/d_1 -> ... with the
    canonical mod reductions; each order must divide the previous."""
    orders = [int(d) for d in orders]
    if any(d < 1 for d in orders):
        raise ValueError("orders must be positive")
    for a, b in zip(orders, orders[1:]):
        if a % b != 0:
            raise ValueError(f"{b} does not divide {a}; no canonical reduction")
    groups = [FinAbelianGroup((d,)) if d > 1 else FinAbelianGroup() for d in orders]
    surjections = []
    for ga, gb in zip(groups, groups[1:]):
        if gb.ngens == 0:
            surjections.append(GroupHom(ga, gb, ()))
        else:
            surjections.append(GroupHom(ga, gb, ((1,) * ga.ngens,)))
    return standard_tower(groups, surjections, vertices, arity), groups, surjections


def element_threads(t: PolyTower, config):
    """Threads of fiber elements over one config, pinned by the greatest
    node and checked against every projection."""
    top = t.poset.greatest()
    config = tuple(config)
    out = []
    for w in t.nodes[top].fiber(config):
        comp = {top: w}
        for u in t.poset.nodes:
            if u != top:
                comp[u] = t.project(u, top, w)
        for u, v in t.poset.strict_pairs():
            if t.project(u, v, comp[v]) != comp[u]:
                raise TowerError("element-thread", {"edge": [u, v], "top_element": w})
        out.append(tuple(sorted(comp.items())))
    return out


def check_thread_action(t: PolyTower, acts, config) -> AxiomReport:
    """The limit group acts coordinatewise on element threads; the
    action must be regular and transitive."""
    gt = group_tower_from_poly(t, acts)
    limit_group, projections = inverse_limit(gt)
    threads = element_threads(t, config)

    def image(gamma, th):
        return tuple(
            (u, acts[u].action[tuple(config)][w][projections[u](gamma).coords]) for u, w in th
        )

    def not_closed():
        thread_set = set(threads)
        for gamma in limit_group.elements():
            for th in threads:
                if image(gamma, th) not in thread_set:
                    yield {"gamma": list(gamma.coords), "thread": [list(p) for p in th]}

    def not_regular():
        for th1 in threads:
            for th2 in threads:
                movers = [gamma for gamma in limit_group.elements() if image(gamma, th1) == th2]
                if len(movers) != 1:
                    yield {
                        "from": [list(p) for p in th1],
                        "to": [list(p) for p in th2],
                        "movers": len(movers),
                    }

    return AxiomReport(
        (
            first_failure("thread-action-closure", not_closed()),
            first_failure("thread-action-regular-transitive", not_regular()),
        )
    )


def poly_tower_to_json_dict(t: PolyTower) -> dict:
    return {
        "poset": {
            "nodes": list(t.poset.nodes),
            "leq": sorted([u, v] for u, v in t.poset.leq),
        },
        "nodes": {u: t.nodes[u].to_json_dict() for u in t.poset.nodes},
        "rho": {
            f"{u},{v}": dict(sorted(m.items())) for (u, v), m in sorted(t.rho.items())
        },
    }


def poly_tower_to_json(t: PolyTower) -> str:
    return json.dumps(poly_tower_to_json_dict(t), sort_keys=True, separators=(",", ":")) + "\n"


def poly_tower_from_json_dict(d) -> PolyTower:
    poset = DirectedPoset(
        tuple(d["poset"]["nodes"]), frozenset(tuple(p) for p in d["poset"]["leq"])
    )
    nodes = {u: from_json_dict(nd) for u, nd in d["nodes"].items()}
    rho = {}
    for key, mapping in d["rho"].items():
        u, v = key.split(",")
        rho[(u, v)] = dict(mapping)
    return PolyTower(poset, nodes, rho)
