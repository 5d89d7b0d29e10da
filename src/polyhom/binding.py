"""Recover the abelian binding group and its regular fiber action from
the Q-relation alone, and verify the action laws.

The construction only ever looks at which horns fill to which elements,
so it works identically on scrambled instances.  On the base fiber,
ordered pairs (x, x') and (y, y') are identified whenever flipping the
same auxiliary element u to the same u' inside a filled horn transports
x to x' and y to y'.  The classes of that closure must compose by the
difference law [(w,w')] + [(w',w'')] = [(w,w'')]; when they do they form
an abelian group acting regularly on the fiber.  The action then spreads
to every other fiber through shared Q-tuples, with the sign
-(-1)^(l - l') attached when moving from face slot l to face slot l',
which is exactly what keeps the alternating action law coherent across
slots.  Well-definedness of each step is verified, not assumed: inputs
that merely parse as quasigroupoids can and do violate it, and the
violation is reported with the offending pairs rather than crashing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

from .algebra import FinAbelianGroup, GroupElement, group_from_addition
from .polygroupoid import AxiomCheck, AxiomReport, Polygroupoid, _config_key, _parse_config_key
from .unionfind import UnionFind


class ExtractionError(ValueError):
    """The input does not behave like a polygroupoid; carries the stage
    and a witness."""

    def __init__(self, stage, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"extraction failed at {stage}: {witness}")


@dataclass(frozen=True)
class TransportClass:
    """Partition of the ordered pairs of one fiber under pair transport."""

    fiber: tuple
    classes: tuple

    def class_of(self, pair):
        for i, cls in enumerate(self.classes):
            if pair in cls:
                return i
        raise KeyError(pair)

    @property
    def diagonal_index(self):
        return self.class_of((self.fiber[0], self.fiber[0]))


@dataclass(frozen=True, eq=False)
class ActionTable:
    """Per-fiber action of a finite abelian group on top-sort elements.

    action[config][elem][gamma.coords] is the image element.
    """

    group: FinAbelianGroup
    action: dict

    def apply(self, config, gamma: GroupElement, elem):
        return self.action[tuple(config)][elem][gamma.coords]

    @cached_property
    def _differences(self):
        """config -> (w, w2) -> coords of the unique gamma with
        gamma.w = w2, or None when several gammas do."""
        out = {}
        for config, ws in self.action.items():
            table = out[config] = {}
            for w, orbit in ws.items():
                for coords, img in orbit.items():
                    table[(w, img)] = None if (w, img) in table else coords
        return out

    def difference(self, config, w, w2):
        """The unique gamma with gamma.w = w2, or None."""
        coords = self._differences[tuple(config)].get((w, w2))
        return None if coords is None else self.group.element(coords)

    def to_json_dict(self):
        return {
            "group": {
                "invariant_factors": list(self.group.invariant_factors),
                "free_rank": self.group.free_rank,
            },
            "action": {
                _config_key(c): {
                    w: {",".join(str(x) for x in g): img for g, img in sorted(table.items())}
                    for w, table in sorted(ws.items())
                }
                for c, ws in sorted(self.action.items())
            },
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def action_table_from_json_dict(d) -> ActionTable:
    group = FinAbelianGroup(
        tuple(d["group"]["invariant_factors"]), d["group"].get("free_rank", 0)
    )
    action = {}
    for key, ws in d["action"].items():
        cfg = _parse_config_key(key)
        action[cfg] = {
            w: {
                tuple(int(x) for x in gk.split(",")) if gk else (): img
                for gk, img in table.items()
            }
            for w, table in ws.items()
        }
    return ActionTable(group, action)


def _transport_buckets(h: Polygroupoid, z):
    """Generator buckets of the pair-transport relation on the fiber
    over z: one bucket per (auxiliary vertex, u, u'), holding every
    ordered pair (x, x') carried by flipping u to u' in some horn."""
    n = h.arity
    z = tuple(z)
    for v in h.vertices:
        if v in z:
            continue
        big = tuple(sorted(z + (v,)))
        ell = big.index(v)
        buckets = {}
        for tup in h.q_by_union.get(big, ()):
            x = tup[ell]
            for j in range(n + 1):
                if j == ell:
                    continue
                u = tup[j]
                for u2 in h.fiber(h.config_of[u]):
                    if u2 == u:
                        continue
                    flipped = tup[:j] + (u2,) + tup[j + 1 :]
                    rest = flipped[:ell] + flipped[ell + 1 :]
                    fillers = h.fillers.get((ell, rest), ())
                    if len(fillers) > 1:
                        raise ExtractionError(
                            "horn-uniqueness", {"horn": list(rest), "slot": ell + 1}
                        )
                    if fillers:
                        buckets.setdefault((v, u, u2), []).append((x, fillers[0]))
        yield from sorted(buckets.items())


def transport_classes(h: Polygroupoid, z) -> TransportClass:
    """Pair-transport partition of F x F over the base fiber.

    The diagonal is seeded as a single class (the identity of the
    prospective group); the u != u' generators never touch it.
    """
    z = tuple(z)
    fiber = h.fiber(z)
    if not fiber:
        raise ExtractionError("base-fiber", {"config": list(z), "reason": "empty fiber"})
    uf = UnionFind((x, y) for x in fiber for y in fiber)
    for x in fiber:
        uf.union((fiber[0], fiber[0]), (x, x))
    for _key, pairs in _transport_buckets(h, z):
        for pair in pairs[1:]:
            uf.union(pairs[0], pair)
    return TransportClass(fiber, tuple(frozenset(g) for g in uf.groups()))


def _class_permutations(tc: TransportClass):
    """Each class must be the graph of a permutation of the fiber."""
    perms = []
    for idx, cls in enumerate(tc.classes):
        out = {}
        for x, y in sorted(cls):
            if x in out:
                raise ExtractionError(
                    "regularity",
                    {"class": idx, "pairs": [[x, out[x]], [x, y]]},
                )
            out[x] = y
        if len(out) != len(tc.fiber) or len(set(out.values())) != len(tc.fiber):
            raise ExtractionError(
                "regularity", {"class": idx, "pairs": [list(p) for p in sorted(cls)]}
            )
        perms.append(out)
    return perms


def base_config(h: Polygroupoid):
    """The first top-sort configuration, where extraction starts."""
    if not h.top_configs:
        raise ExtractionError("base-fiber", {"reason": "no top-sort fiber"})
    return h.top_configs[0]


def extract(h: Polygroupoid, z):
    """Binding group and full action table from the Q-relation.

    Raises ExtractionError when the difference law is not well defined
    or the class action is not regular and transitive, which signals
    that the input is not a genuine polygroupoid.
    """
    n = h.arity
    z = tuple(z)
    tc = transport_classes(h, z)
    perms = _class_permutations(tc)
    fiber = tc.fiber

    index_of = {}
    for i, cls in enumerate(tc.classes):
        for pair in cls:
            index_of[pair] = i

    def compose(a, b):
        x0 = fiber[0]
        target = index_of[(x0, perms[b][perms[a][x0]])]
        for x in fiber:
            seen = index_of[(x, perms[b][perms[a][x]])]
            if seen != target:
                raise ExtractionError(
                    "difference-law",
                    {
                        "first": [x0, perms[a][x0], perms[b][perms[a][x0]]],
                        "second": [x, perms[a][x], perms[b][perms[a][x]]],
                    },
                )
        return target

    table = {}
    for a in range(len(tc.classes)):
        for b in range(len(tc.classes)):
            table[(a, b)] = compose(a, b)
            if (b, a) in table and table[(b, a)] != table[(a, b)]:
                raise ExtractionError("abelian", {"classes": [a, b]})

    diag = tc.diagonal_index
    try:
        group, to_coords, from_coords = group_from_addition(
            range(len(tc.classes)), lambda a, b: table[(a, b)], diag
        )
    except ValueError as exc:
        raise ExtractionError("group-structure", {"reason": str(exc)}) from exc

    base_action = {}
    for x in fiber:
        base_action[x] = {}
        for i, perm in enumerate(perms):
            base_action[x][to_coords[i].coords] = perm[x]

    action = {z: base_action}
    # Spread to the other fibers through shared Q-tuples.  Moving the
    # action from face slot l to face slot l' of the same (n+1)-subset
    # twists gamma by -(-1)^(l - l'); every Q-tuple over the connecting
    # subset must induce the same table or the input is incoherent.
    pending = [c for c in h.top_configs if c != z]
    reached = {z}
    progress = True
    while pending and progress:
        progress = False
        for big in sorted(h.q_by_union):
            faces = [tuple(v for v in big if v != big[j]) for j in range(n + 1)]
            known = [j for j, f in enumerate(faces) if f in reached]
            if not known:
                continue
            for ell2, face in enumerate(faces):
                if face in reached:
                    continue
                ell = known[0]
                src = faces[ell]
                new_table = {w: {} for w in h.fiber(face)}
                sign = -1 if (ell - ell2) % 2 == 0 else 1
                for tup in h.q_by_union[big]:
                    x, y = tup[ell], tup[ell2]
                    for g in group.elements():
                        twisted = group.scale(sign, g)
                        x2 = action[src][x][twisted.coords]
                        flipped = tup[:ell] + (x2,) + tup[ell + 1 :]
                        rest = flipped[:ell2] + flipped[ell2 + 1 :]
                        fillers = h.fillers.get((ell2, rest), ())
                        if len(fillers) != 1:
                            raise ExtractionError(
                                "propagation",
                                {"config": list(face), "horn": list(rest)},
                            )
                        prev = new_table[y].get(g.coords)
                        if prev is not None and prev != fillers[0]:
                            raise ExtractionError(
                                "propagation",
                                {
                                    "config": list(face),
                                    "element": y,
                                    "gamma": list(g.coords),
                                    "images": [prev, fillers[0]],
                                },
                            )
                        new_table[y][g.coords] = fillers[0]
                for w, tbl in new_table.items():
                    if len(tbl) != group.order():
                        raise ExtractionError(
                            "propagation",
                            {"config": list(face), "element": w, "reason": "incomplete orbit"},
                        )
                action[face] = new_table
                reached.add(face)
                pending.remove(face)
                progress = True
    if pending:
        raise ExtractionError(
            "propagation", {"unreachable": [list(c) for c in pending]}
        )
    return group, ActionTable(group, action)


def verify_action(h: Polygroupoid, act: ActionTable) -> AxiomReport:
    """Exhaustive verification of the action table against the
    structure: bijective zero-identity additive action, regular and
    transitive per fiber, and the alternating Q-law
    Q(g_1.w_1, ..., g_{n+1}.w_{n+1}) iff sum (-1)^i g_i = 0.
    """
    group = act.group
    checks = []

    witness = None
    zero = group.zero()
    for config, ws in sorted(act.action.items()):
        if sorted(ws) != list(h.fiber(config)):
            witness = {"config": list(config), "reason": "fiber mismatch"}
            break
        for w, table in sorted(ws.items()):
            if table.get(zero.coords) != w:
                witness = {"config": list(config), "element": w, "reason": "zero moves it"}
                break
        if witness:
            break
        for g in group.elements():
            images = [table[g.coords] for table in ws.values()]
            if len(set(images)) != len(images):
                witness = {"config": list(config), "gamma": list(g.coords), "reason": "not a bijection"}
                break
        if witness:
            break
        for g1, g2 in itertools.product(group.elements(), repeat=2):
            s = group.add(g1, g2)
            for w in ws:
                if ws[ws[w][g2.coords]][g1.coords] != ws[w][s.coords]:
                    witness = {
                        "config": list(config),
                        "element": w,
                        "gammas": [list(g1.coords), list(g2.coords)],
                        "reason": "not additive",
                    }
                    break
            if witness:
                break
        if witness:
            break
    checks.append(AxiomCheck("action-validity", witness is None, witness))

    witness = None
    for config, ws in sorted(act.action.items()):
        for w, w2 in itertools.product(sorted(ws), repeat=2):
            hits = [g for g in group.elements() if ws[w][g.coords] == w2]
            if len(hits) != 1:
                witness = {
                    "config": list(config),
                    "pair": [w, w2],
                    "gammas": [list(g.coords) for g in hits],
                }
                break
        if witness:
            break
    checks.append(AxiomCheck("regular-transitive", witness is None, witness))

    witness = None
    gamma_tuples = list(itertools.product(group.elements(), repeat=h.arity + 1))
    zero_sum = [group.alternating_sum(gt) == zero for gt in gamma_tuples]
    for tup in sorted(h.q):
        configs = [h.config_of[w] for w in tup]
        tables = [act.action[c][w] for c, w in zip(configs, tup)]
        for gt, is_zero in zip(gamma_tuples, zero_sum):
            image = tuple(tables[i][gt[i].coords] for i in range(len(tup)))
            if (image in h.q) != is_zero:
                witness = {
                    "tuple": list(tup),
                    "gammas": [list(g.coords) for g in gt],
                    "alternating_sum_zero": is_zero,
                    "image_in_q": image in h.q,
                }
                break
        if witness:
            break
    checks.append(AxiomCheck("q-action-law", witness is None, witness))

    return AxiomReport(tuple(checks))
