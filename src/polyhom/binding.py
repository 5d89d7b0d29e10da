"""Recover the abelian binding group and its regular fiber action from
the Q-relation alone, and verify the action laws.

The construction only ever looks at which horns fill to which elements,
so it works identically on scrambled instances.  Flipping one auxiliary
element u to u' inside the filled horns through u moves the base fiber
by a permutation; the permutations for every u' in u's fiber are the
candidate group, composed through their images of one base point.  The
action then spreads to every other fiber through shared Q-tuples, with
the sign -(-1)^(l - l') attached when moving from face slot l to face
slot l', which is exactly what keeps the alternating action law
coherent across slots.  That proposal reads one horn per entry and is
returned only when `verify_action` certifies it.

Inputs that break the law take the pair-transport path instead: ordered
pairs (x, x') and (y, y') of the base fiber are identified whenever
flipping the same u to the same u' in some filled horn transports x to
x' and y to y'.  The classes of that closure must compose by the
difference law [(w,w')] + [(w',w'')] = [(w,w'')]; when they do they
form an abelian group acting regularly on the fiber, spread as above
with every shared Q-tuple checked for agreement.  Inputs that merely
parse as quasigroupoids can and do violate these steps, and the
violation is reported with the offending pairs rather than crashing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from operator import getitem

from .algebra import FinAbelianGroup, GroupElement, group_from_addition
from .polygroupoid import AxiomReport, Polygroupoid, _config_key, _parse_config_key, first_failure
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

    The certified path reads a proposal in one flip (see
    `_proposed_action`): |G|^n horn lookups for the base permutations,
    the addition table from where they take fiber[0], and each new
    fiber's rows from one Q-tuple per element.  It is returned when
    `verify_action` passes it.  Otherwise the pair-transport path runs:
    `transport_classes`, one permutation per class, the full
    composition table and propagation through every shared Q-tuple.

    Both paths return the same result whenever the certificate passes.
    Write A for the certified table.  A is regular and additive and
    obeys the Q-law, and every Q-tuple over U has slot i over U minus
    its i-th vertex (the proposal is only read when that holds).  Then:
    - every horn over a subset that holds Q-tuples has exactly one
      filler: a filler completes a Q-tuple over the same subset, so it
      is g.x for one g, and the law fixes g.  So `_transport_buckets`
      never raises;
    - each bucket (v, u, u2) is the graph of x -> c.x with c = +-d and
      d the difference of u and u2 under A, over the whole base fiber;
      that is one of the proposal's permutations.  The proposal's own
      buckets reach every c != 0 and the diagonal is seeded, so the
      union-find classes are the graphs of the group elements, ordered
      by their smallest member (fiber[0], fiber[k]).  Class k is
      permutation k, so regularity passes;
    - additivity makes `compose` consistent and abelian, so
      `group_from_addition` gets the same table with the same zero and
      returns the same group and coordinates;
    - the law makes every propagation filler g.y under A, so the full
      propagation writes A's rows in the same face order, with no
      conflict and no incomplete orbit.
    So the pair-transport path would return (group, A).

    Raises ExtractionError when the pair-transport path finds the
    difference law not well defined or the class action not regular
    and transitive, which signals that the input is not a genuine
    polygroupoid.  An input that breaks the action law can still come
    back with a group from the pair-transport path; callers check the
    law with `action_law_witness`.
    """
    z = tuple(z)
    try:
        proposed = _proposed_action(h, z)
    except ValueError:  # group_from_addition or the propagation refused it
        proposed = None
    if proposed is not None and verify_action(h, proposed[1]).passed:
        return proposed
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
    return _spread(h, z, group, to_coords, perms, every_tuple=True)


def _proposed_action(h: Polygroupoid, z):
    """Group and action read from one flip; None or a ValueError where
    that reading fails.  Only `verify_action` makes it the binding
    group's.

    Let v be the first vertex outside z, big = z + v, l the slot of v,
    j the first other slot and u slot j of the first Q-tuple over big.
    Each u2 in u's fiber gives a permutation of the base fiber: flip
    slot j of the Q-tuples through u to u2 and take the filler at slot
    l.  Permutation k is the one taking fiber[0] to fiber[k], which is
    the class order of `transport_classes`.
    """
    fiber = h.fiber(z)
    v = next((v for v in h.vertices if v not in z), None)
    if not fiber or v is None or not _shaped(h):
        return None
    big = tuple(sorted(z + (v,)))
    tuples = h.q_by_union.get(big)
    if not tuples:
        return None
    ell = big.index(v)
    j = 1 if ell == 0 else 0
    u = tuples[0][j]
    through = [t for t in tuples if t[j] == u]
    perms = []
    for u2 in h.fiber(h.config_of[u]):
        perm = {}
        for t in through:
            flipped = t[:j] + (u2,) + t[j + 1 :]
            fillers = h.fillers.get((ell, flipped[:ell] + flipped[ell + 1 :]), ())
            if len(fillers) != 1 or perm.setdefault(t[ell], fillers[0]) != fillers[0]:
                return None
        if tuple(sorted(perm)) != fiber or tuple(sorted(perm.values())) != fiber:
            return None
        perms.append(perm)
    pos = {x: i for i, x in enumerate(fiber)}
    perms.sort(key=lambda perm: pos[perm[fiber[0]]])
    if tuple(perm[fiber[0]] for perm in perms) != fiber:
        return None
    # perms[a] takes fiber[0] to fiber[a], so a + b is where perms[b]
    # takes fiber[a].
    table = [[pos[perm[x]] for perm in perms] for x in fiber]
    group, to_coords, _ = group_from_addition(range(len(fiber)), lambda a, b: table[a][b], 0)
    return _spread(h, z, group, to_coords, perms, every_tuple=False)


def _spread(h: Polygroupoid, z, group, to_coords, perms, every_tuple):
    """Action on the fiber over z, g = to_coords[i] acting as perms[i],
    spread to every other top fiber through shared Q-tuples.

    Each new fiber's rows are read from every Q-tuple over the
    connecting subset, which must agree, or with every_tuple false from
    the first Q-tuple through each element, for a table that is
    certified afterwards.
    """
    n = h.arity
    action = {z: {x: {to_coords[i].coords: perm[x] for i, perm in enumerate(perms)} for x in h.fiber(z)}}
    # Moving the action from face slot l to face slot l' of the same
    # (n+1)-subset twists gamma by -(-1)^(l - l').
    # twists[sign] pairs the coordinates of each gamma and of sign.gamma.
    twists = {
        sign: [
            (g.coords, tuple(sign * x % d for x, d in zip(g.coords, group.invariant_factors)))
            for g in group.elements()
        ]
        for sign in (1, -1)
    }
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
                tuples = h.q_by_union[big]
                if not every_tuple:
                    tuples = {tup[ell2]: tup for tup in reversed(tuples)}.values()
                for tup in tuples:
                    orbit = action[src][tup[ell]]
                    y = tup[ell2]
                    row = new_table[y]
                    for g, twisted in twists[sign]:
                        flipped = tup[:ell] + (orbit[twisted],) + tup[ell + 1 :]
                        rest = flipped[:ell2] + flipped[ell2 + 1 :]
                        fillers = h.fillers.get((ell2, rest), ())
                        if len(fillers) != 1:
                            raise ExtractionError(
                                "propagation",
                                {"config": list(face), "horn": list(rest)},
                            )
                        prev = row.get(g)
                        if prev is not None and prev != fillers[0]:
                            raise ExtractionError(
                                "propagation",
                                {
                                    "config": list(face),
                                    "element": y,
                                    "gamma": list(g),
                                    "images": [prev, fillers[0]],
                                },
                            )
                        row[g] = fillers[0]
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
    """Verify the action table against the structure: a bijective,
    zero-identity, additive action on every top fiber (action-validity),
    regular and transitive per fiber (regular-transitive), and the
    alternating Q-law (q-action-law): for every Q-tuple w and every
    twist g = (g_0, ..., g_n),

        Q(g_0.w_0, ..., g_n.w_n)  iff  alt(g) = sum (-1)^i g_i = 0,

    with Q non-empty over every (n+1)-subset of the vertices.

    Additivity is tested on the unit coordinate vectors s only:
    (g + s).w = g.(s.w) for every g and w.  That is enough.  Write
    phi(g) for w -> g.w; phi(0) = id is the zero check.  Every b is a
    word in the s; if phi(a) o phi(b') = phi(a + b') for all a, then
    phi(a) o phi(b' + s) = phi(a) o phi(b') o phi(s) = phi(a + b') o
    phi(s) = phi(a + b' + s), using the unit check at g = b' and at
    g = a + b'.  Induction on word length gives phi(a) o phi(b) =
    phi(a + b) for every pair.  This costs ngens.|G|.|F| lookups per
    fiber F instead of |G|^2.|F|.

    The Q-law is decided from one base tuple per subset when both
    checks above pass and every Q-tuple over U has slot i in the fiber
    over U minus its i-th vertex.  Then G^(n+1) acts simply
    transitively on the tuples over U, so each tuple over U, each
    Q-tuple included, is g.w0 for exactly one g, where w0 is the first
    Q-tuple over U.  If the law holds, applying it to w0 gives
    Q_U = {g.w0 : alt(g) = 0}.  Conversely, if Q_U is that set, every
    w in Q_U is h.w0 with alt(h) = 0, additivity gives g.w = (g + h).w0,
    and alt is a homomorphism, so g.w is in Q iff alt(g + h) = 0 iff
    alt(g) = 0.  So the law over U is: every zero-sum twist of w0 lands
    in Q (the twists g_0..g_{n-1} run freely and g_n is solved for, so
    |G|^n lookups), and |Q_U| = |G|^n, since those images are distinct.
    Over all subsets that is |Q| lookups in place of |Q|.|G|^(n+1).  A
    missing image is reported as (w0, g); a surplus tuple t as
    (w0, h) with t = h.w0 and alt(h) != 0; an empty Q_U by its union.
    When a premise fails the report already fails, and the law is
    checked by the exhaustive scan over every Q-tuple and every twist.
    """
    group = act.group
    zero = group.zero().coords
    elements = [g.coords for g in group.elements()]
    units = [tuple(int(i == k) for i in range(group.ngens)) for k in range(group.ngens)]
    plus = {s: {g: group.add(GroupElement(g), GroupElement(s)).coords for g in elements} for s in units}

    def invalid():
        for config in sorted(set(act.action) | set(h.top_configs)):
            ws = act.action.get(config, {})
            fiber = h.fiber(config)
            if sorted(ws) != list(fiber):
                yield {"config": list(config), "reason": "fiber mismatch"}
            for w, table in sorted(ws.items()):
                if table.get(zero) != w:
                    yield {"config": list(config), "element": w, "reason": "zero moves it"}
            for g in elements:
                if {table.get(g) for table in ws.values()} != ws.keys():
                    yield {"config": list(config), "gamma": list(g), "reason": "not a bijection"}
            for s, g in itertools.product(units, elements):
                gs = plus[s][g]
                for w in fiber:
                    if ws[ws[w][s]][g] != ws[w][gs]:
                        yield {
                            "config": list(config),
                            "element": w,
                            "gammas": [list(g), list(s)],
                            "reason": "not additive",
                        }

    def irregular():
        for config, ws in sorted(act.action.items()):
            for w in sorted(ws):
                hits = {}
                for g in elements:
                    hits.setdefault(ws[w].get(g), []).append(g)
                for w2 in sorted(ws):
                    if len(hits.get(w2, ())) != 1:
                        yield {
                            "config": list(config),
                            "pair": [w, w2],
                            "gammas": [list(g) for g in hits.get(w2, ())],
                        }

    validity = first_failure("action-validity", invalid())
    regularity = first_failure("regular-transitive", irregular())
    if validity.passed and regularity.passed and _shaped(h):
        law = _q_law_from_base_tuples(h, act, elements)
    else:
        law = _q_law_exhaustive(h, act)
    return AxiomReport((validity, regularity, first_failure("q-action-law", law)))


def _shaped(h: Polygroupoid):
    """Whether every Q-tuple sits over n + 1 vertices U with slot i in
    the fiber over U minus its i-th vertex."""
    config_of = h.config_of.__getitem__
    return all(
        len(union) == h.arity + 1
        and all(
            set(map(config_of, column)) == {union[:i] + union[i + 1 :]}
            for i, column in enumerate(zip(*tuples))
        )
        for union, tuples in h.q_by_union.items()
    )


def action_law_witness(h: Polygroupoid, act: ActionTable):
    """The first failed check of `verify_action` as {"axiom", "witness"},
    or None when the action obeys the law."""
    failures = verify_action(h, act).failures()
    return {"axiom": failures[0].axiom, "witness": failures[0].witness} if failures else None


def _q_law_from_base_tuples(h: Polygroupoid, act: ActionTable, elements):
    """The q-action-law witnesses, read from one base tuple per
    (n+1)-subset; valid under the premises in verify_action."""
    group = act.group
    n = h.arity
    # alt(g) = 0 solved for the last twist: g_n = (-1)^(n+1) alt(g_0..g_{n-1})
    sign = 1 if n % 2 else -1
    factors = group.invariant_factors
    size = group.order() ** n
    zero_sum = []
    for head in itertools.product(elements, repeat=n):
        last = tuple(
            sign * sum(g[k] if i % 2 == 0 else -g[k] for i, g in enumerate(head)) % d
            for k, d in enumerate(factors)
        )
        zero_sum.append(head + (last,))
    for union in itertools.combinations(h.vertices, n + 1):
        tuples = h.q_by_union.get(union)
        if not tuples:
            yield {"union": list(union), "reason": "no Q-tuple"}
            continue
        w0 = tuples[0]
        tables = [act.action[h.config_of[w]][w] for w in w0]
        for gammas in zero_sum:
            if tuple(map(getitem, tables, gammas)) not in h.q:
                yield {
                    "tuple": list(w0),
                    "gammas": [list(g) for g in gammas],
                    "alternating_sum_zero": True,
                    "image_in_q": False,
                }
        if len(tuples) != size:
            for t in tuples:
                diffs = [act.difference(h.config_of[w], w, x) for w, x in zip(w0, t)]
                if group.alternating_sum(diffs) != group.zero():
                    yield {
                        "tuple": list(w0),
                        "gammas": [list(g.coords) for g in diffs],
                        "alternating_sum_zero": False,
                        "image_in_q": True,
                    }


def _q_law_exhaustive(h: Polygroupoid, act: ActionTable):
    """The q-action-law witnesses over every Q-tuple and every twist;
    a table the action does not define counts as an image outside Q."""
    group = act.group
    zero = group.zero()
    gamma_tuples = list(itertools.product(group.elements(), repeat=h.arity + 1))
    zero_sum = [group.alternating_sum(gt) == zero for gt in gamma_tuples]
    for tup in sorted(h.q):
        tables = [act.action.get(h.config_of[w], {}).get(w, {}) for w in tup]
        for gt, is_zero in zip(gamma_tuples, zero_sum):
            image = tuple(tables[i].get(gt[i].coords) for i in range(len(tup)))
            if (image in h.q) != is_zero:
                yield {
                    "tuple": list(tup),
                    "gammas": [list(g.coords) for g in gt],
                    "alternating_sum_zero": is_zero,
                    "image_in_q": image in h.q,
                }
