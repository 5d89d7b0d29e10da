"""Finite n-ary quasigroupoids and polygroupoids.

A structure has sorts 1..n: sort 1 is the vertex set, an element of
sort k >= 2 lives in the fiber over a strictly increasing k-tuple of
vertices, and its projection tuple pi(w) lists the k elements one sort
down obtained by deleting one vertex at a time (slot j deletes the j-th
vertex, so for sort 2 the tuple comes out reversed).  Q is an explicit
set of (n+1)-tuples of top-sort elements, stored extensionally so the
axiom checks can be exhaustive and serialization bit-exact.

Tuple slots follow the 1-based convention of the compatibility law
pi_i(w_j) = pi_{j-1}(w_i); in code both sides become 0-based indices,
which leaves the law as pi[ws[b]][a] == pi[ws[a]][b-1] for a < b.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .algebra import FinAbelianGroup, GroupElement


class EmptyFiberError(ValueError):
    def __init__(self, config):
        self.config = config
        super().__init__(f"empty fiber over {config}")


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    witness: object = None

    def to_json_dict(self):
        return {"axiom": self.axiom, "passed": self.passed, "witness": self.witness}


def first_failure(axiom, witnesses) -> AxiomCheck:
    """The check of `axiom`: failed with the first of `witnesses`, or
    passed when there is none.  Checks write their scans as generators
    that yield a witness where a loop would break: a scan is not resumed
    after its first witness, so the code after a yield never runs."""
    witness = next(iter(witnesses), None)
    return AxiomCheck(axiom, witness is None, witness)


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self):
        return {"passed": self.passed, "checks": [c.to_json_dict() for c in self.checks]}


def _config_key(config):
    return ",".join(str(v) for v in config)


def _parse_config_key(key):
    return tuple(int(v) for v in key.split(","))


@dataclass(frozen=True, eq=False)
class Polygroupoid:
    """n-ary quasigroupoid data; axiom conformance is checked separately
    so that planted violations remain representable."""

    arity: int
    vertices: tuple[int, ...]
    fibers: dict
    pi: dict
    q: frozenset

    @cached_property
    def config_of(self):
        out = {}
        for config, elems in self.fibers.items():
            for w in elems:
                out[w] = config
        return out

    @cached_property
    def top_configs(self):
        return tuple(sorted(c for c in self.fibers if len(c) == self.arity))

    def fiber(self, config):
        config = tuple(config)
        if len(config) == 1:
            return config if config[0] in self.vertices else ()
        return self.fibers.get(config, ())

    def sort_of(self, x):
        if isinstance(x, int):
            return 1
        return len(self.config_of[x])

    @cached_property
    def q_by_union(self):
        """Q-tuples grouped by the vertex set they sit over."""
        out = {}
        for tup in sorted(self.q):
            union = set()
            for w in tup:
                union.update(self.config_of[w])
            out.setdefault(tuple(sorted(union)), []).append(tup)
        return out

    @cached_property
    def fillers(self):
        """(slot, tuple-with-slot-removed) -> fillers, for horn lookups."""
        out = {}
        for tup in sorted(self.q):
            for slot in range(len(tup)):
                key = (slot, tup[:slot] + tup[slot + 1 :])
                out.setdefault(key, []).append(tup[slot])
        return out

    def to_json_dict(self):
        return {
            "arity": self.arity,
            "vertices": list(self.vertices),
            "fibers": {_config_key(c): list(ws) for c, ws in sorted(self.fibers.items())},
            "pi": {w: list(t) for w, t in sorted(self.pi.items())},
            "Q": sorted(list(t) for t in self.q),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def polygroupoid(arity, vertices, fibers, pi, q) -> Polygroupoid:
    """Validate basic well-formedness and canonicalize the storage.

    Only shape errors raise here (unknown ids, wrong tuple lengths,
    duplicate ids).  Violations of the quasigroupoid axioms are the
    business of check_axioms.
    """
    if arity < 2:
        raise ValueError("arity must be at least 2")
    vertices = tuple(sorted(set(int(v) for v in vertices)))
    vertex_set = set(vertices)
    canon_fibers = {}
    seen = set()
    for config, elems in fibers.items():
        config = tuple(config)
        if not 2 <= len(config) <= arity:
            raise ValueError(f"fiber config {config} has size outside [2, arity]")
        if list(config) != sorted(set(config)) or not set(config) <= vertex_set:
            raise ValueError(f"bad fiber config {config}")
        elems = tuple(sorted(str(w) for w in elems))
        for w in elems:
            if w in seen:
                raise ValueError(f"duplicate element id {w!r}")
            seen.add(w)
        canon_fibers[config] = elems
    config_of = {w: c for c, ws in canon_fibers.items() for w in ws}
    canon_pi = {}
    for w in sorted(config_of):
        if w not in pi:
            raise ValueError(f"missing projection tuple for {w!r}")
        k = len(config_of[w])
        tup = tuple(pi[w])
        if len(tup) != k:
            raise ValueError(f"pi({w!r}) must have length {k}")
        for x in tup:
            if isinstance(x, int):
                if k != 2 or x not in vertex_set:
                    raise ValueError(f"pi({w!r}) refers to unknown vertex {x}")
            elif x not in config_of or len(config_of[x]) != k - 1:
                raise ValueError(f"pi({w!r}) refers to {x!r}, not an element one sort down")
        canon_pi[w] = tup
    if set(pi) - set(canon_pi):
        raise ValueError("pi defined on unknown elements")
    canon_q = set()
    for tup in q:
        tup = tuple(tup)
        if len(tup) != arity + 1:
            raise ValueError("Q tuples must have length arity + 1")
        for w in tup:
            if w not in config_of or len(config_of[w]) != arity:
                raise ValueError(f"Q refers to {w!r}, not a top-sort element")
        canon_q.add(tup)
    return Polygroupoid(arity, vertices, canon_fibers, canon_pi, frozenset(canon_q))


def from_json_dict(d) -> Polygroupoid:
    return polygroupoid(
        d["arity"],
        d["vertices"],
        {_parse_config_key(k): v for k, v in d["fibers"].items()},
        {w: tuple(t) for w, t in d["pi"].items()},
        [tuple(t) for t in d["Q"]],
    )


def from_json(text) -> Polygroupoid:
    return from_json_dict(json.loads(text))


def _pairwise_ok(h, ws, a, b):
    """Compatibility identity between 0-based slots a < b of a tuple of
    sort-k elements; for k = 1 it degenerates to distinctness.  A pair
    through a deleted slot (None) imposes nothing."""
    wa, wb = ws[a], ws[b]
    if wa is None or wb is None:
        return True
    if isinstance(wa, int) or isinstance(wb, int):
        return wa != wb
    return h.pi[wb][a] == h.pi[wa][b - 1]


def is_compatible(h: Polygroupoid, ws) -> bool:
    """Compatibility of a (k+1)-tuple of sort-k elements.  A slot marked
    None is deleted and the pairs through it are skipped; that is how
    is_partially_compatible reads a horn."""
    ws = tuple(ws)
    sorts = {h.sort_of(w) for w in ws if w is not None}
    if len(sorts) != 1:
        raise ValueError("mixed sorts in compatibility check")
    k = sorts.pop()
    if len(ws) != k + 1:
        raise ValueError(f"expected a {k + 1}-tuple of sort-{k} elements")
    return all(_pairwise_ok(h, ws, a, b) for a, b in itertools.combinations(range(k + 1), 2))


def is_partially_compatible(h: Polygroupoid, ws) -> bool:
    """Compatibility with one deleted slot, marked None in the tuple."""
    ws = tuple(ws)
    if ws.count(None) != 1:
        raise ValueError("exactly one slot must be None")
    return is_compatible(h, ws)


def _expected_face_config(config, j):
    return config[:j] + config[j + 1 :]


def check_axioms(h: Polygroupoid) -> AxiomReport:
    """Exhaustive verification of coherence, Q-compatibility, horn
    uniqueness and local finiteness.  Failures carry a witness."""

    def coherence():
        for w in sorted(h.config_of):
            config = h.config_of[w]
            k = len(config)
            tup = h.pi[w]
            for j in range(k):
                expected = _expected_face_config(config, j)
                x = tup[j]
                actual = (x,) if isinstance(x, int) else h.config_of[x]
                if actual != expected:
                    yield {
                        "element": w,
                        "slot": j + 1,
                        "expected_config": list(expected),
                        "actual_config": list(actual),
                    }
            if not is_compatible(h, tup):
                yield {"element": w, "pi": list(tup), "reason": "pi tuple incompatible"}

    def horn_uniqueness():
        for (slot, rest), found in sorted(h.fillers.items()):
            if len(found) > 1:
                first = rest[:slot] + (found[0],) + rest[slot:]
                second = rest[:slot] + (found[1],) + rest[slot:]
                yield {"first": list(first), "second": list(second), "slot": slot + 1}

    # fibers are stored extensionally, so finiteness cannot fail; the
    # check records the fiber census for the report.
    census = {_config_key(c): len(ws) for c, ws in sorted(h.fibers.items())}
    return AxiomReport(
        (
            first_failure("coherence", coherence()),
            first_failure(
                "q-compatibility",
                ({"tuple": list(tup)} for tup in sorted(h.q) if not is_compatible(h, tup)),
            ),
            first_failure("horn-uniqueness", horn_uniqueness()),
            AxiomCheck("local-finiteness", True, {"fiber_sizes": census}),
        )
    )


def _grid_cells(n):
    return list(itertools.combinations(range(n + 2), 2))


def _row_cells(n, i):
    """Cells of grid row i: slot k holds the pair {i, m}, m = k if k < i
    else k + 1."""
    out = []
    for k in range(n + 1):
        m = k if k < i else k + 1
        out.append((min(i, m), max(i, m)))
    return out


def check_associativity(h: Polygroupoid, c) -> AxiomReport:
    """Grid associativity over one (n+2)-tuple of vertices.

    For each deleted row l, in order 0..n+1, enumerates every assignment
    of fiber elements to the unordered pairs of c and requires: Q on the
    other n+1 rows forces Q on row l.  The first failing assignment is
    the witness.  The search is depth-first; cells are placed row by row
    over the rows other than l (each row's new cells in slot order), and
    each cell's candidates are tried in fiber order.

    Pruning is exact.  A new cell is checked against every cell placed
    before it by the pairwise compatibility law of the row they share
    (row l included), read from a table built once per deleted row.  A
    cell that completes a row other than l takes its candidates from
    that row's horn fillers: a value puts the row in Q exactly when it
    fills the horn, and with the rest of the row fixed the filler list
    (built from sorted(Q)) runs in element-id order, which is fiber
    order, so a horn with several fillers yields the same candidates in
    the same order as a scan of the fiber.  Further rows completed by
    the same cell are tested against Q.  Since row l is pairwise-checked
    during the search, is_compatible holds on it at every leaf, so the
    leaf tests only whether row l is in Q.
    """
    return _check_grid(h, c, from_first_leaf=False)


def _check_grid(h: Polygroupoid, c, from_first_leaf):
    """check_associativity over c; with from_first_leaf, decided by the
    first leaf of the search for deleted row 0 when there is one (see
    check_all_associativity)."""
    n = h.arity
    c = tuple(sorted(c))
    if len(c) != n + 2 or len(set(c)) != n + 2:
        raise ValueError("need n+2 distinct vertices")
    cells = _grid_cells(n)
    cell_fiber = {}
    for cell in cells:
        config = tuple(v for idx, v in enumerate(c) if idx not in cell)
        fib = h.fiber(config)
        if not fib:
            raise EmptyFiberError(config)
        cell_fiber[cell] = fib
    rows = [_row_cells(n, i) for i in range(n + 2)]
    pi, q, fillers = h.pi, h.q, h.fillers

    def search(ell):
        """The leaves of the search with row ell deleted, each yielded as
        its tuple on row ell, and a function giving the witness of the
        leaf last yielded."""
        order = []
        seen = set()
        for i in range(n + 2):
            if i == ell:
                continue
            for cell in rows[i]:
                if cell not in seen:
                    seen.add(cell)
                    order.append(cell)
        # every cell touches at least one row other than ell
        assert len(order) == len(cells)
        position = {cell: pos for pos, cell in enumerate(order)}
        fibers = [cell_fiber[cell] for cell in order]
        fiber_sets = [frozenset(fib) for fib in fibers]
        # pairs[pos]: (earlier position, pi index on the new element, pi
        # index on the earlier one) for every row the two cells share;
        # the law pi[ws[b]][a] == pi[ws[a]][b-1] for slots a < b.
        pairs = [[] for _ in order]
        for row in rows:
            for b, cell in enumerate(row):
                pb = position[cell]
                for a, other in enumerate(row):
                    pa = position[other]
                    if pa < pb:
                        pairs[pb].append((pa, a, b - 1) if a < b else (pa, a - 1, b))
        # horn[pos]: (slot of pos, getter of the rest of the row) for the
        # first row other than ell that pos completes; also_closes[pos]:
        # getters of any further rows it completes.  Rows have n + 1 >= 3
        # cells, so every getter returns a tuple.
        horn = [None] * len(order)
        also_closes = [[] for _ in order]
        for i in range(n + 2):
            if i == ell:
                continue
            positions = [position[x] for x in rows[i]]
            last = max(positions)
            if horn[last] is None:
                slot = positions.index(last)
                horn[last] = (slot, itemgetter(*positions[:slot], *positions[slot + 1 :]))
            else:
                also_closes[last].append(itemgetter(*positions))
        ell_row = itemgetter(*(position[x] for x in rows[ell]))
        vals = [None] * len(order)
        pis = [None] * len(order)

        def candidates(pos):
            if horn[pos] is None:
                return iter(fibers[pos])
            slot, rest = horn[pos]
            fib = fiber_sets[pos]
            return iter([w for w in fillers.get((slot, rest(vals)), ()) if w in fib])

        def leaves():
            # depth-first with one candidate iterator per placed cell
            last = len(order) - 1
            untried = [None] * len(order)
            untried[0] = candidates(0)
            pos = 0
            while pos >= 0:
                checks = pairs[pos]
                for w in untried[pos]:
                    pw = pi[w]
                    for p, i, j in checks:
                        if pw[i] != pis[p][j]:
                            break
                    else:
                        vals[pos] = w
                        pis[pos] = pw
                        if all(row(vals) in q for row in also_closes[pos]):
                            break  # w is placed
                else:
                    pos -= 1
                    continue
                if pos == last:
                    yield ell_row(vals)
                else:
                    pos += 1
                    untried[pos] = candidates(pos)

        def witness(tup):
            return {
                "deleted_row": ell,
                "cells": {f"{a},{b}": vals[position[(a, b)]] for a, b in cells},
                "failing_row": list(tup),
            }

        return leaves(), witness

    def failures():
        for ell in range(n + 2):
            leaves, witness = search(ell)
            yield from (witness(tup) for tup in leaves if tup not in q)

    axiom = f"associativity@{_config_key(c)}"
    if from_first_leaf:
        leaves, witness = search(0)
        tup = next(leaves, None)
        if tup is not None:
            return AxiomReport((first_failure(axiom, [] if tup in q else [witness(tup)]),))
    return AxiomReport((first_failure(axiom, failures()),))


def _decided_by_first_leaf(h: Polygroupoid):
    """Whether every grid's verdict is its first leaf's, by the premise
    in check_all_associativity; checked cheapest part first."""
    from . import binding

    n = h.arity
    config_of = h.config_of
    if any(len(ws) != 1 for config, ws in h.fibers.items() if len(config) < n):
        return False
    for config in h.top_configs:
        faces = [_expected_face_config(config, j) for j in range(n)]
        for w in h.fiber(config):
            if faces != [(x,) if isinstance(x, int) else config_of.get(x) for x in h.pi[w]]:
                return False
    try:
        _, act = binding.extract(h, binding.base_config(h))
    except binding.ExtractionError:
        return False
    return binding.verify_action(h, act).passed


def check_all_associativity(h: Polygroupoid) -> AxiomReport:
    """Associativity over every (n+2)-subset of the vertex set.

    When a premise holds, each subset c is decided by the first leaf of
    its search for deleted row 0: c passes when that leaf's row 0 is in
    Q, and fails with that leaf as the witness otherwise.  The premise,
    checked once per call: every fiber below the top sort is a
    singleton, every pi entry of a top-sort element sits over the
    matching face, and the table `binding.extract` reads on the base
    configuration passes `verify_action`.

    Under it the scan over every deleted row reports exactly that.  All
    pairwise compatibility tests compare two elements of the same
    singleton fiber, so they hold and prune nothing: the leaves for
    deleted row l are all the assignments with every row other than l
    in Q.  Fix a base element in each cell fiber and write each cell as
    a twist of it.  The action is regular, additive and obeys the law,
    so row i is in Q exactly when L_i(t) = K_i, where L_i is the
    alternating sum of the twists of row i's cells and K_i a constant
    read from the first Q-tuple over row i's vertices.  Cell {a, b},
    a < b, sits in row a at slot b - 1 and in row b at slot a, so its
    twist enters sum_i (-1)^i L_i with signs (-1)^(a+b-1) and
    (-1)^(a+b): the sum vanishes identically.  Hence, on every leaf of
    every deleted row, row l is in Q exactly when sum_i (-1)^i K_i = 0,
    which depends neither on the leaf nor on l.  A leaf exists for each
    l: set the cells outside row l freely, then solve each cell {i, l}
    from row i's equation, where its coefficient is +-1.  So either
    every leaf passes, and so does the scan, or every leaf fails, and
    the scan's witness is the first leaf for deleted row 0, the one
    read here.  The report is the scan's, byte for byte.

    When the premise fails, or the search for row 0 reaches no leaf,
    every deleted row is scanned as in `check_associativity`.
    """
    from_first_leaf = _decided_by_first_leaf(h)
    checks = []
    for c in itertools.combinations(h.vertices, h.arity + 2):
        checks.extend(_check_grid(h, c, from_first_leaf).checks)
    if not checks:
        checks.append(AxiomCheck("associativity", True, {"note": "no (n+2)-subset available"}))
    return AxiomReport(tuple(checks))


def _coords_key(elem: GroupElement):
    return ",".join(str(c) for c in elem.coords)


def standard_with_coordinates(group: FinAbelianGroup, vertices, arity):
    """The standard model over a finite abelian group, plus the map from
    top-sort element ids back to their group coordinates.

    Sorts below the top are singleton fibers; the fiber over each
    n-subset is a copy of the group; Q consists of the compatible
    tuples whose alternating coordinate sum vanishes.
    """
    n = arity
    if n < 2:
        raise ValueError("arity must be at least 2")
    if not group.is_finite():
        raise ValueError("standard model needs a finite group")
    vertices = tuple(sorted(set(int(v) for v in vertices)))
    if len(vertices) < n + 1:
        raise ValueError("need at least arity + 1 vertices")

    def lower_id(config):
        return f"p{len(config)}:{_config_key(config)}"

    fibers = {}
    pi = {}
    for k in range(2, n):
        for config in itertools.combinations(vertices, k):
            w = lower_id(config)
            fibers[config] = (w,)
            pi[w] = tuple(
                _expected_face_config(config, j)[0] if k == 2 else lower_id(_expected_face_config(config, j))
                for j in range(k)
            )
    coords = {}
    for config in itertools.combinations(vertices, n):
        elems = []
        below = tuple(
            _expected_face_config(config, j)[0] if n == 2 else lower_id(_expected_face_config(config, j))
            for j in range(n)
        )
        for g in group.elements():
            w = f"w:{_config_key(config)}:{_coords_key(g)}"
            elems.append(w)
            pi[w] = below
            coords[w] = g
        fibers[config] = tuple(sorted(elems))

    q = []
    for big in itertools.combinations(vertices, n + 1):
        faces = [tuple(v for v in big if v != big[j]) for j in range(n + 1)]
        free = list(itertools.product(*(group.elements() for _ in range(n))))
        for head in free:
            # alternating sum over 0-based slots must vanish; solve the last
            acc = group.alternating_sum(head)
            last = group.neg(acc) if n % 2 == 0 else acc
            tup = tuple(
                f"w:{_config_key(faces[j])}:{_coords_key(head[j] if j < n else last)}"
                for j in range(n + 1)
            )
            q.append(tup)
    h = polygroupoid(n, vertices, fibers, pi, q)
    return h, coords


def standard(group: FinAbelianGroup, vertices, arity) -> Polygroupoid:
    return standard_with_coordinates(group, vertices, arity)[0]


def scramble(h: Polygroupoid, seed) -> Polygroupoid:
    """Relabel every top-sort fiber by an independent seeded bijection,
    hiding whatever the element ids used to encode.  Axiom conformance
    is preserved; identical seeds give identical bytes."""
    rng = random.Random(seed)
    n = h.arity
    mapping = {}
    for config in sorted(c for c in h.fibers if len(c) == n):
        elems = list(h.fibers[config])
        perm = list(range(len(elems)))
        rng.shuffle(perm)
        for new_idx, old_idx in enumerate(perm):
            mapping[elems[old_idx]] = f"z:{_config_key(config)}:{new_idx}"
    fibers = {}
    pi = {}
    for config, elems in h.fibers.items():
        if len(config) == n:
            fibers[config] = tuple(sorted(mapping[w] for w in elems))
        else:
            fibers[config] = elems
    for w, tup in h.pi.items():
        pi[mapping.get(w, w)] = tup
    q = [tuple(mapping[w] for w in tup) for tup in h.q]
    return polygroupoid(n, h.vertices, fibers, pi, q)


def count_horn_fillers(h: Polygroupoid, ws):
    """Number of Q-completions of a partially compatible tuple; the gap
    is the None slot."""
    ws = tuple(ws)
    gap = ws.index(None)
    if not is_partially_compatible(h, ws):
        raise ValueError("tuple is not partially compatible")
    rest = tuple(w for w in ws if w is not None)
    return len(h.fillers.get((gap, rest), ()))


def check_horn_filling(h: Polygroupoid) -> AxiomReport:
    """Every partially compatible horn over an (n+1)-subset must have
    exactly one Q-filler.  Exhaustive; a horn whose gap sits over an
    empty fiber has no filler, so it fails."""
    n = h.arity

    def miscounted_horns():
        for big in itertools.combinations(h.vertices, n + 1):
            faces = [tuple(v for v in big if v != big[j]) for j in range(n + 1)]
            fibs = [h.fiber(f) for f in faces]
            for gap in range(n + 1):
                pools = [fibs[j] for j in range(n + 1) if j != gap]
                for pick in itertools.product(*pools):
                    ws = list(pick[:gap]) + [None] + list(pick[gap:])
                    if not is_partially_compatible(h, ws):
                        continue
                    count = len(h.fillers.get((gap, pick), ()))
                    if count != 1:
                        yield {"horn": list(ws), "fillers": count}

    return AxiomReport((first_failure("horn-filling-count", miscounted_horns()),))
