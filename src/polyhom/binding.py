"""Recover the abelian binding group and its regular fiber action from
the Q-relation alone, and verify the action laws.

`extract` only ever looks at which horns fill to which elements, so it
works identically on scrambled instances.  Flipping one auxiliary
element u to u' inside the filled horns through u moves the base fiber
by a permutation; the permutations for every u' in u's fiber are the
candidate group, composed through their images of one base point.  The
action then spreads to every other fiber through shared Q-tuples, with
the sign -(-1)^(l - l') attached when moving from face slot l to face
slot l', which is exactly what keeps the alternating action law
coherent across slots.  That reading costs one horn lookup per table
entry.  Inputs that merely parse as quasigroupoids can break it; it
then raises `ExtractionError` with the stage and a witness rather than
crashing.

The table is the binding group's action only when `verify_action`
certifies it, and `extract` does not run that certificate: the callers
that report a group run it once each.  On an input that breaks the
action law `extract` can return a table that fails it.

`transport_classes` builds the same group independently, and nothing in
the library calls it; the tests compare `extract` with it.  Ordered
pairs (x, x') and (y, y') of the base fiber are identified whenever
flipping the same u to the same u' in some filled horn transports x to
x' and y to y'; on a polygroupoid the classes are the graphs of the
group's elements.
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
        elements = [g.coords for g in self.group.elements()]
        out = {}
        for config, ws in self.action.items():
            table = out[config] = {}
            for w, orbit in ws.items():
                for coords in elements:
                    img = orbit.get(coords)
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


def base_config(h: Polygroupoid):
    """The first top-sort configuration, where extraction starts."""
    if not h.top_configs:
        raise ExtractionError("base-fiber", {"reason": "no top-sort fiber"})
    return h.top_configs[0]


def extract(h: Polygroupoid, z):
    """Binding group and full action table from the Q-relation, read
    from one flip.

    Let v be the first vertex outside z, big = z + v, l the slot of v,
    j the first other slot and u slot j of the first Q-tuple over big.
    Each u2 in u's fiber gives a flip of the base fiber: replace slot j
    of the Q-tuples through u by u2 and take the filler at slot l.
    Flip k is the one taking fiber[0] to fiber[k], and a + b is where
    flip b takes fiber[a]; `group_from_addition` presents that table.
    The action then spreads to every other top fiber (see `_spread`).
    That is |G|^n horn lookups for the flips and one Q-tuple per
    element of each new fiber.

    The result is the binding group's action exactly when
    `verify_action` passes it, which this function does not check; on
    an input that breaks the action law it can return a table that
    fails the certificate.

    Raises ExtractionError where the reading fails:
    - base-fiber: the fiber over z is empty, or no Q-tuple sits over
      z and v;
    - q-shape: the Q-tuples over some vertex set are not over n + 1
      vertices with slot i over the set minus its i-th vertex;
    - horn-uniqueness {"horn", "slot"}: a flipped horn has two or more
      fillers;
    - propagation {"config", "horn"}: a flipped horn has no filler, and
      the propagation witnesses of `_spread`;
    - regularity: a flip is not a permutation of the base fiber
      {"flip", "pairs"}, or the flips do not take fiber[0] to each
      element once {"from", "element", "images"};
    - abelian {"flips", "element", "images"}: flip b after flip a and
      flip a after flip b take fiber[0] to different images;
    - group-structure {"flips", "element", "images"}: the table is not
      associative: flips a, b, c in turn and flips b, c, a in turn
      take fiber[0] to different images.
    """
    z = tuple(z)
    fiber = h.fiber(z)
    if not fiber:
        raise ExtractionError("base-fiber", {"config": list(z), "reason": "empty fiber"})
    misplaced = _misplaced(h)
    if misplaced is not None:
        raise ExtractionError("q-shape", {"union": list(misplaced)})
    big = next((tuple(sorted(z + (v,))) for v in h.vertices if v not in z), None)
    tuples = h.q_by_union.get(big)
    if not tuples:
        raise ExtractionError("base-fiber", {"config": list(z), "reason": "no Q-tuple to flip"})
    ell = next(i for i, v in enumerate(big) if v not in z)
    j = 1 if ell == 0 else 0
    u = tuples[0][j]
    through = [t for t in tuples if t[j] == u]
    flips = {}
    for u2 in h.fiber(h.config_of[u]):
        perm = flips[u2] = {}
        for t in through:
            flipped = t[:j] + (u2,) + t[j + 1 :]
            horn = flipped[:ell] + flipped[ell + 1 :]
            fillers = h.fillers.get((ell, horn), ())
            if len(fillers) > 1:
                raise ExtractionError("horn-uniqueness", {"horn": list(horn), "slot": ell + 1})
            if not fillers:
                raise ExtractionError("propagation", {"config": list(z), "horn": list(horn)})
            x, y = t[ell], fillers[0]
            if perm.setdefault(x, y) != y:
                raise ExtractionError("regularity", {"flip": [u, u2], "pairs": [[x, perm[x]], [x, y]]})
        if tuple(sorted(perm)) != fiber or tuple(sorted(perm.values())) != fiber:
            raise ExtractionError("regularity", {"flip": [u, u2], "pairs": sorted(map(list, perm.items()))})
    images = {u2: perm[fiber[0]] for u2, perm in flips.items()}
    if tuple(sorted(images.values())) != fiber:
        raise ExtractionError("regularity", {"from": u, "element": fiber[0], "images": images})
    pos = {x: i for i, x in enumerate(fiber)}
    order = sorted(flips, key=lambda u2: pos[images[u2]])
    perms = [flips[u2] for u2 in order]
    # perms[a] takes fiber[0] to fiber[a], so a + b is where perms[b]
    # takes fiber[a].
    table = [[pos[perm[x]] for perm in perms] for x in fiber]
    for a, b in itertools.combinations(range(len(fiber)), 2):
        if table[a][b] != table[b][a]:
            witness = {
                "flips": [[u, order[a]], [u, order[b]]],
                "element": fiber[0],
                "images": [fiber[table[a][b]], fiber[table[b][a]]],
            }
            raise ExtractionError("abelian", witness)
    try:
        group, to_coords, _ = group_from_addition(range(len(fiber)), lambda a, b: table[a][b], 0)
    except ValueError as exc:
        # Past the checks above the table is a commutative loop, which is
        # a group exactly when it is associative.
        for a, b, c in itertools.product(range(len(fiber)), repeat=3):
            images = [fiber[table[table[a][b]][c]], fiber[table[table[b][c]][a]]]
            if images[0] != images[1]:
                witness = {"flips": [[u, order[k]] for k in (a, b, c)], "element": fiber[0], "images": images}
                raise ExtractionError("group-structure", witness) from exc
        raise
    return _spread(h, z, group, to_coords, perms)


def _spread(h: Polygroupoid, z, group, to_coords, perms):
    """Action on the fiber over z, g = to_coords[i] acting as perms[i],
    spread to every other top fiber through shared Q-tuples.

    Each new fiber's rows are read from the first Q-tuple through each
    element over the connecting subset.
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
                for tup in {tup[ell2]: tup for tup in reversed(h.q_by_union[big])}.values():
                    orbit = action[src][tup[ell]]
                    row = new_table[tup[ell2]]
                    for g, twisted in twists[sign]:
                        flipped = tup[:ell] + (orbit[twisted],) + tup[ell + 1 :]
                        rest = flipped[:ell2] + flipped[ell2 + 1 :]
                        fillers = h.fillers.get((ell2, rest), ())
                        if len(fillers) != 1:
                            raise ExtractionError(
                                "propagation",
                                {"config": list(face), "horn": list(rest)},
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
            differences = act._differences[config]
            for w, w2 in itertools.product(sorted(ws), repeat=2):
                if differences.get((w, w2)) is None:
                    gammas = [list(g) for g in elements if ws[w].get(g) == w2]
                    yield {"config": list(config), "pair": [w, w2], "gammas": gammas}

    validity = first_failure("action-validity", invalid())
    regularity = first_failure("regular-transitive", irregular())
    if validity.passed and regularity.passed and _misplaced(h) is None:
        law = _q_law_from_base_tuples(h, act, elements)
    else:
        law = _q_law_exhaustive(h, act)
    return AxiomReport((validity, regularity, first_failure("q-action-law", law)))


def _misplaced(h: Polygroupoid):
    """The first vertex set U whose Q-tuples do not all sit over n + 1
    vertices with slot i in the fiber over U minus its i-th vertex, or
    None."""
    config_of = h.config_of.__getitem__
    return next(
        (
            union
            for union, tuples in h.q_by_union.items()
            if len(union) != h.arity + 1
            or any(
                set(map(config_of, column)) != {union[:i] + union[i + 1 :]}
                for i, column in enumerate(zip(*tuples))
            )
        ),
        None,
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
