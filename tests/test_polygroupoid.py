import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhom import binding
from polyhom.algebra import FinAbelianGroup, abelian_group
from polyhom.binding import base_config, extract, verify_action
from polyhom.faults import drop_q_tuple, duplicate_horn, rewire_pi, shift_q
from polyhom.hurewicz import check_boundary_zero, cosimplex_datum
from polyhom.polygroupoid import (
    AxiomCheck,
    AxiomReport,
    EmptyFiberError,
    check_all_associativity,
    check_associativity,
    check_axioms,
    check_horn_filling,
    count_horn_fillers,
    from_json,
    is_compatible,
    is_partially_compatible,
    polygroupoid,
    scramble,
    standard,
    standard_with_coordinates,
)

Z2 = abelian_group(2)
Z3 = abelian_group(3)
Z4 = abelian_group(4)
TRIVIAL = FinAbelianGroup()


class TestCompatibility:
    def test_standard_canonical_tuple(self):
        h = standard(Z4, range(4), 2)
        tup = min(h.q)
        assert is_compatible(h, tup)

    def test_equal_vertices_incompatible(self):
        h = standard(Z2, range(3), 2)
        assert not is_compatible(h, (0, 0))
        assert is_compatible(h, (0, 2))

    def test_pi_disagreement(self):
        h = standard(Z2, range(3), 2)
        w01 = h.fiber((0, 1))[0]
        w01b = h.fiber((0, 1))[1]
        w12 = h.fiber((1, 2))[0]
        # two elements over the same pair can never interlock
        assert not is_compatible(h, (w01, w01b, w12))

    def test_mixed_sorts_rejected(self):
        h = standard(Z2, range(4), 3)
        top = h.fiber((0, 1, 2))[0]
        with pytest.raises(ValueError):
            is_compatible(h, (top, 0, 1, 2))

    def test_partial(self):
        h = standard(Z2, range(3), 2)
        w12 = h.fiber((1, 2))[0]
        w02 = h.fiber((0, 2))[0]
        assert is_partially_compatible(h, (w12, w02, None))
        with pytest.raises(ValueError):
            is_partially_compatible(h, (w12, None, None))


class TestStandard:
    def test_small_census(self):
        h = standard(Z2, range(3), 2)
        assert len(h.fibers) == 3
        assert all(len(ws) == 2 for ws in h.fibers.values())
        # oracle: solutions of -g1+g2-g3 = 0 over Z/2, by enumeration
        count = sum(
            1
            for g in itertools.product(range(2), repeat=3)
            if (-g[0] + g[1] - g[2]) % 2 == 0
        )
        assert count == 4
        assert len(h.q) == 4
        compatible_triples = [
            tup
            for tup in itertools.product(h.fiber((1, 2)), h.fiber((0, 2)), h.fiber((0, 1)))
            if is_compatible(h, tup)
        ]
        assert len(compatible_triples) == 8

    def test_trivial_group(self):
        h = standard(TRIVIAL, range(4), 2)
        assert all(len(ws) == 1 for ws in h.fibers.values())
        compat = [
            tup
            for big in itertools.combinations(h.vertices, 3)
            for tup in [tuple(h.fiber(tuple(v for v in big if v != big[j]))[0] for j in range(3))]
            if is_compatible(h, tup)
        ]
        assert sorted(h.q) == sorted(compat)

    def test_axioms_and_associativity_z4(self):
        h = standard(Z4, range(4), 2)
        assert check_axioms(h).passed
        assert check_all_associativity(h).passed

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            standard(Z2, range(2), 2)

    def test_infinite_group_rejected(self):
        with pytest.raises(ValueError):
            standard(FinAbelianGroup((), 1), range(3), 2)

    def test_arity_three_lower_sorts(self):
        h = standard(Z2, range(4), 3)
        assert check_axioms(h).passed
        assert len(h.fiber((0, 1))) == 1
        assert len(h.fiber((0, 1, 2))) == 2


class TestAxiomFaults:
    def test_duplicate_horn_detected(self):
        h = duplicate_horn(standard(Z2, range(3), 2))
        report = check_axioms(h)
        assert not report.passed
        fail = next(c for c in report.failures() if c.axiom == "horn-uniqueness")
        first, second = tuple(fail.witness["first"]), tuple(fail.witness["second"])
        assert first in h.q and second in h.q
        slot = fail.witness["slot"] - 1
        assert first[:slot] + first[slot + 1 :] == second[:slot] + second[slot + 1 :]
        assert first[slot] != second[slot]

    def test_rewired_pi_detected(self):
        h = rewire_pi(standard(Z4, range(4), 2))
        report = check_axioms(h)
        assert not report.passed
        assert any(c.axiom == "coherence" for c in report.failures())

    def test_rewired_pi_detected_arity_three(self):
        h = rewire_pi(standard(Z2, range(4), 3))
        assert not check_axioms(h).passed


def brute_associativity_standard(group, vertices, coords_of, h, c):
    """Independent oracle: check the grid implication over coordinates,
    no search involved."""
    n = h.arity
    pairs = list(itertools.combinations(range(n + 2), 2))
    fibers = {}
    for pair in pairs:
        config = tuple(v for i, v in enumerate(c) if i not in pair)
        fibers[pair] = h.fiber(config)

    def rows_of(assign):
        rows = []
        for i in range(n + 2):
            row = []
            for k in range(n + 1):
                m = k if k < i else k + 1
                row.append(assign[(min(i, m), max(i, m))])
            rows.append(tuple(row))
        return rows

    for values in itertools.product(*(fibers[p] for p in pairs)):
        assign = dict(zip(pairs, values))
        rows = rows_of(assign)
        in_q = [
            group.alternating_sum([coords_of[w] for w in row]) == group.zero()
            for row in rows
        ]
        for ell in range(n + 2):
            if all(in_q[i] for i in range(n + 2) if i != ell) and not in_q[ell]:
                return False
    return True


class TestAssociativity:
    def test_standard_z4_passes(self):
        h, coords = standard_with_coordinates(Z4, range(4), 2)
        c = (0, 1, 2, 3)
        assert brute_associativity_standard(Z4, range(4), coords, h, c)  # oracle
        assert check_associativity(h, c).passed

    def test_standard_z2_arity3_passes(self):
        h = standard(Z2, range(5), 3)
        assert check_associativity(h, (0, 1, 2, 3, 4)).passed

    def test_uniform_shift_fails_arity3(self):
        h = shift_q(standard(Z2, range(5), 3))
        assert check_axioms(h).passed  # still a quasigroupoid
        report = check_associativity(h, (0, 1, 2, 3, 4))
        assert not report.passed
        witness = report.failures()[0].witness
        assert tuple(witness["failing_row"]) not in h.q

    def test_single_subset_shift_fails_arity2(self):
        h = shift_q(standard(Z4, range(4), 2), unions=[(0, 1, 2)])
        assert check_axioms(h).passed
        assert not check_all_associativity(h).passed

    def test_empty_fiber_error(self):
        h = standard(Z2, range(4), 2)
        fibers = dict(h.fibers)
        fibers[(0, 1)] = ()
        pi = {w: t for w, t in h.pi.items() if h.config_of[w] != (0, 1)}
        q = [t for t in h.q if all(h.config_of[w] != (0, 1) for w in t)]
        crippled = polygroupoid(2, h.vertices, fibers, pi, q)
        with pytest.raises(EmptyFiberError):
            check_associativity(crippled, (0, 1, 2, 3))


def reference_check_associativity(h, c):
    """The plain grid search: every fiber element at every cell, pairwise
    compatibility rebuilt from row lists, completed rows tested against
    Q, and a full compatibility check at the leaf.  Same visiting order
    and witness shape as check_associativity."""
    n = h.arity
    c = tuple(sorted(c))
    cells = list(itertools.combinations(range(n + 2), 2))
    cell_fiber = {
        cell: h.fiber(tuple(v for idx, v in enumerate(c) if idx not in cell)) for cell in cells
    }
    rows = []
    for i in range(n + 2):
        row = []
        for k in range(n + 1):
            m = k if k < i else k + 1
            row.append((min(i, m), max(i, m)))
        rows.append(row)

    def pairwise_ok(ws, a, b):
        return h.pi[ws[b]][a] == h.pi[ws[a]][b - 1]

    def run_for_deleted(ell):
        order = []
        for i in range(n + 2):
            if i != ell:
                order.extend(cell for cell in rows[i] if cell not in order)
        position = {cell: pos for pos, cell in enumerate(order)}
        completes = {}
        for i in range(n + 2):
            if i != ell:
                completes.setdefault(max(position[x] for x in rows[i]), []).append(i)
        assign = {}

        def compatible_so_far(cell):
            for row in rows:
                if cell not in row:
                    continue
                b = row.index(cell)
                ws = [assign.get(x) for x in row]
                for a in range(len(row)):
                    if a != b and row[a] in assign:
                        if not pairwise_ok(ws, min(a, b), max(a, b)):
                            return False
            return True

        def dfs(pos):
            if pos == len(order):
                tup = tuple(assign[cell] for cell in rows[ell])
                if is_compatible(h, tup) and tup not in h.q:
                    return {
                        "deleted_row": ell,
                        "cells": {f"{a},{b}": assign[(a, b)] for a, b in cells},
                        "failing_row": list(tup),
                    }
                return None
            cell = order[pos]
            for w in cell_fiber[cell]:
                assign[cell] = w
                if compatible_so_far(cell) and all(
                    tuple(assign[x] for x in rows[i]) in h.q for i in completes.get(pos, [])
                ):
                    witness = dfs(pos + 1)
                    if witness:
                        return witness
                del assign[cell]
            return None

        return dfs(0)

    for ell in range(n + 2):
        witness = run_for_deleted(ell)
        if witness:
            return {"axiom": f"associativity@{','.join(map(str, c))}", "passed": False, "witness": witness}
    return {"axiom": f"associativity@{','.join(map(str, c))}", "passed": True, "witness": None}


def reference_check_all(h):
    checks = [
        reference_check_associativity(h, c)
        for c in itertools.combinations(h.vertices, h.arity + 2)
    ]
    return {"passed": all(ch["passed"] for ch in checks), "checks": checks}


def _differential_cases():
    Z8 = abelian_group(8)
    cases = [
        ("standard-n2-Z4", scramble(standard(Z4, range(5), 2), 1)),
        ("standard-n3-Z2", scramble(standard(Z2, range(5), 3), 2)),
        ("duplicate_horn", scramble(duplicate_horn(standard(Z4, range(5), 2)), 4)),
        ("rewire_pi", scramble(rewire_pi(standard(Z4, range(5), 2)), 5)),
    ]
    for group in (Z4, Z8):
        for union, where in [((0, 1, 2), "early"), ((2, 3, 4), "late")]:
            for seed in (1, 2, 3):
                shifted = shift_q(standard(group, range(5), 2), unions=[union])
                cases.append((f"shift_q-{where}-Z{group.order()}-{seed}", scramble(shifted, seed)))
    # three fillers per horn over {0, 1, 2}: the witness depends on the
    # order in which a row-completing cell tries them
    h = standard(Z4, range(5), 2)
    once = shift_q(h, unions=[(0, 1, 2)])
    twice = shift_q(once, unions=[(0, 1, 2)])
    several = polygroupoid(2, h.vertices, h.fibers, h.pi, h.q | once.q | twice.q)
    cases.append(("several_fillers", scramble(several, 1)))
    return [pytest.param(name, h, id=name) for name, h in cases]


class CountingSet(frozenset):
    """A frozenset that counts membership tests."""

    def __init__(self, items):
        self.calls = 0

    def __contains__(self, item):
        self.calls += 1
        return frozenset.__contains__(self, item)


class TestAssociativitySearch:
    @pytest.mark.parametrize("name,h", _differential_cases())
    def test_matches_reference_search(self, name, h):
        expected = reference_check_all(h)
        assert check_all_associativity(h).to_json_dict() == expected
        if name.startswith(("shift_q", "several_fillers")):
            assert not expected["passed"]

    def test_row_completing_cells_come_from_fillers(self):
        # Z/4 over four vertices has 4^3 free cell choices per deleted
        # row, so the leaves alone make 256 membership tests; scanning
        # the fiber at every row-completing cell makes ten times that.
        h = scramble(standard(Z4, range(4), 2), 3)
        counted = dataclasses.replace(h, q=CountingSet(h.q))
        assert check_associativity(counted, (0, 1, 2, 3)).passed
        assert counted.q.calls <= 512


def reference_check_all_associativity(h):
    """The all-rows grid search as check_all_associativity ran it before
    it decided grids from their first leaf: for every (n+2)-subset and
    every deleted row l in order, depth-first over the cells of the
    other rows, row-completing cells taken from horn fillers, pairwise
    compatibility from tables; the first leaf whose row l is outside Q
    is the witness."""
    n = h.arity
    cells = list(itertools.combinations(range(n + 2), 2))
    rows = [[(min(i, m), max(i, m)) for m in range(n + 2) if m != i] for i in range(n + 2)]

    def check(c):
        cell_fiber = {}
        for cell in cells:
            config = tuple(v for idx, v in enumerate(c) if idx not in cell)
            if not h.fiber(config):
                raise EmptyFiberError(config)
            cell_fiber[cell] = h.fiber(config)

        def run_for_deleted(ell):
            order = []
            for i in range(n + 2):
                if i != ell:
                    order.extend(cell for cell in rows[i] if cell not in order)
            position = {cell: pos for pos, cell in enumerate(order)}
            pairs = [[] for _ in order]
            for row in rows:
                for b, cell in enumerate(row):
                    for a, other in enumerate(row):
                        if position[other] < position[cell]:
                            pairs[position[cell]].append(
                                (position[other], a, b - 1) if a < b else (position[other], a - 1, b)
                            )
            horn = [None] * len(order)
            also_closes = [[] for _ in order]
            for i in range(n + 2):
                if i != ell:
                    positions = [position[x] for x in rows[i]]
                    last = max(positions)
                    if horn[last] is None:
                        slot = positions.index(last)
                        horn[last] = (slot, positions[:slot] + positions[slot + 1 :])
                    else:
                        also_closes[last].append(positions)
            vals = [None] * len(order)

            def dfs(pos):
                if pos == len(order):
                    tup = tuple(vals[position[x]] for x in rows[ell])
                    if tup in h.q:
                        return None
                    return {
                        "deleted_row": ell,
                        "cells": {f"{a},{b}": vals[position[(a, b)]] for a, b in cells},
                        "failing_row": list(tup),
                    }
                fib = cell_fiber[order[pos]]
                if horn[pos] is None:
                    cands = fib
                else:
                    slot, rest = horn[pos]
                    key = (slot, tuple(vals[p] for p in rest))
                    cands = [w for w in h.fillers.get(key, ()) if w in fib]
                for w in cands:
                    if all(h.pi[w][i] == h.pi[vals[p]][j] for p, i, j in pairs[pos]):
                        vals[pos] = w
                        if all(tuple(vals[p] for p in row) in h.q for row in also_closes[pos]):
                            witness = dfs(pos + 1)
                            if witness:
                                return witness
                return None

            return dfs(0)

        witness = next(filter(None, map(run_for_deleted, range(n + 2))), None)
        axiom = f"associativity@{','.join(map(str, c))}"
        return {"axiom": axiom, "passed": witness is None, "witness": witness}

    checks = [check(c) for c in itertools.combinations(h.vertices, n + 2)]
    return {"passed": all(ch["passed"] for ch in checks), "checks": checks}


def translated(h, shifts):
    """Q over each union u translated by shifts[u] steps of shift_q."""
    for union, steps in sorted(shifts.items()):
        for _ in range(steps):
            h = shift_q(h, unions=[union])
    return h


def _first_leaf_cases():
    Z8 = abelian_group(8)
    Z2Z4 = abelian_group(2, 4)
    cases = []
    for n, group, size, seed in [
        (2, Z2, 4, 1), (2, Z3, 5, 2), (2, Z4, 5, 3), (2, Z2Z4, 4, 4), (2, Z8, 5, 5),
        (3, Z2, 5, 6), (3, Z3, 5, 7), (3, Z2, 6, 8), (4, Z2, 6, 9), (4, Z3, 6, 10),
    ]:
        name = f"standard-n{n}-Z{'x'.join(map(str, group.invariant_factors))}-V{size}"
        cases.append((name, scramble(standard(group, range(size), n), seed)))
    for n, group, size in [(2, Z4, 5), (2, Z2Z4, 4), (3, Z2, 5), (3, Z3, 5)]:
        rng = random.Random(size * 100 + n * 10 + group.order())
        unions = list(itertools.combinations(range(size), n + 1))
        for k in range(3):
            chosen = rng.sample(unions, rng.randint(1, len(unions) // 2))
            h = shift_q(standard(group, range(size), n), unions=chosen)
            name = f"shift_q-n{n}-Z{'x'.join(map(str, group.invariant_factors))}-V{size}-{k}"
            cases.append((name, scramble(h, k)))
    for group in (Z4, Z8):
        healthy = standard(group, range(5), 2)
        cases.append((f"duplicate_horn-Z{group.order()}", scramble(duplicate_horn(healthy), 4)))
        cases.append((f"rewire_pi-Z{group.order()}", scramble(rewire_pi(healthy), 5)))
        dropped = drop_q_tuple(healthy, union=(1, 2, 3))
        cases.append((f"drop_q_tuple-Z{group.order()}", scramble(dropped, 7)))
    cases.append(("rewire_pi-n3", scramble(rewire_pi(standard(Z2, range(5), 3)), 5)))
    return [pytest.param(name, h, id=name) for name, h in cases]


class TestFirstLeaf:
    @pytest.mark.parametrize("name,h", _first_leaf_cases())
    def test_matches_all_rows_search(self, name, h):
        assert check_all_associativity(h).to_json_dict() == reference_check_all_associativity(h)

    def test_emptied_fiber_raises_at_the_same_subset(self):
        h = scramble(standard(Z3, range(5), 2), 1)
        gone = set(h.fiber((2, 4)))
        pi = {w: t for w, t in h.pi.items() if w not in gone}
        q = [t for t in h.q if not gone & set(t)]
        emptied = polygroupoid(2, h.vertices, {**h.fibers, (2, 4): ()}, pi, q)
        with pytest.raises(EmptyFiberError) as expected:
            reference_check_all_associativity(emptied)
        with pytest.raises(EmptyFiberError) as got:
            check_all_associativity(emptied)
        assert got.value.config == expected.value.config == (2, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(2, 2, 4), (2, 3, 4), (2, 4, 5), (3, 2, 5), (3, 3, 5)]),
        st.data(),
        st.integers(0, 1000),
    )
    def test_random_translates(self, shape, data, seed):
        n, order, size = shape
        unions = list(itertools.combinations(range(size), n + 1))
        steps = data.draw(st.lists(st.integers(0, order - 1), min_size=len(unions), max_size=len(unions)))
        h = scramble(translated(standard(abelian_group(order), range(size), n), dict(zip(unions, steps))), seed)
        assert check_all_associativity(h).to_json_dict() == reference_check_all_associativity(h)

    def test_one_leaf_per_subset(self):
        # one (n+2)-subset; 3^10 leaves per deleted row in the all-rows
        # search.  Under the premise verify_action makes |Q| membership
        # tests and the grid one, at its first leaf.
        h = scramble(standard(Z3, range(6), 4), 1)
        counted = dataclasses.replace(h, q=CountingSet(h.q))
        assert check_all_associativity(counted).passed
        assert counted.q.calls <= len(h.q) + 1

    @pytest.mark.parametrize(
        "h",
        [
            scramble(standard(Z4, range(5), 2), 2),
            scramble(shift_q(standard(Z4, range(5), 2), unions=[(1, 3, 4)]), 3),
        ],
        ids=["passing", "shift_q"],
    )
    def test_failed_certificate_scans_every_row(self, monkeypatch, h):
        full = dataclasses.replace(h, q=CountingSet(h.q))
        subsets = list(itertools.combinations(h.vertices, 4))
        expected = AxiomReport(tuple(check_associativity(full, c).checks[0] for c in subsets))
        refused = AxiomReport((AxiomCheck("q-action-law", False, {"reason": "refused"}),))
        monkeypatch.setattr(binding, "verify_action", lambda h, act: refused)
        counted = dataclasses.replace(h, q=CountingSet(h.q))
        assert check_all_associativity(counted) == expected
        assert expected.to_json_dict() == reference_check_all_associativity(h)
        assert counted.q.calls == full.q.calls


class TestBoundaryOracle:
    """On inputs that obey the action law, a grid passes exactly when the
    zero-twist boundary sum over its subset vanishes."""

    @pytest.mark.parametrize(
        "n,group,size",
        [(2, Z2, 4), (2, Z3, 5), (2, Z4, 5), (3, Z2, 5), (3, Z3, 5)],
        ids=["n2-Z2-V4", "n2-Z3-V5", "n2-Z4-V5", "n3-Z2-V5", "n3-Z3-V5"],
    )
    def test_grid_passes_iff_boundary_vanishes(self, n, group, size):
        rng = random.Random(31 * size + n + group.order())
        unions = list(itertools.combinations(range(size), n + 1))
        healthy = standard(group, range(size), n)
        instances = [scramble(healthy, 1)] + [
            scramble(shift_q(healthy, unions=rng.sample(unions, rng.randint(1, len(unions) // 2))), k)
            for k in range(4)
        ]
        failing = 0
        for h in instances:
            found, act = extract(h, base_config(h))
            assert verify_action(h, act).passed
            for c, check in zip(itertools.combinations(h.vertices, n + 2), check_all_associativity(h).checks):
                assert check.passed == check_boundary_zero(h, act, cosimplex_datum(h, found, c))
                failing += not check.passed
        assert failing


class TestHornFilling:
    @pytest.mark.parametrize(
        "group,size,arity",
        [(Z2, 3, 2), (Z4, 4, 2), (Z2, 4, 3), (Z3, 5, 3)],
    )
    def test_unique_fillers(self, group, size, arity):
        h = standard(group, range(size), arity)
        assert check_horn_filling(h).passed

    def test_count_direct(self):
        h = standard(Z4, range(3), 2)
        w12 = h.fiber((1, 2))[0]
        w02 = h.fiber((0, 2))[0]
        w01 = h.fiber((0, 1))[0]
        assert count_horn_fillers(h, (w12, w02, None)) == 1
        assert count_horn_fillers(h, (w12, None, w01)) == 1
        assert count_horn_fillers(h, (None, w02, w01)) == 1

    def test_empty_face_fiber_fails(self):
        # the fiber over (1, 2) emptied, with its elements' pi and its
        # Q-tuples: the horns whose gap sits over it have no filler
        h = standard(Z4, range(4), 2)
        gone = set(h.fiber((1, 2)))
        pi = {w: t for w, t in h.pi.items() if w not in gone}
        q = [t for t in h.q if not gone & set(t)]
        emptied = polygroupoid(2, h.vertices, {**h.fibers, (1, 2): ()}, pi, q)
        (check,) = check_horn_filling(emptied).checks
        assert not check.passed
        assert check.witness == {"horn": [None, "w:0,2:0", "w:0,1:0"], "fillers": 0}


class TestScramble:
    def test_axioms_preserved(self):
        h = standard(Z4, range(4), 2)
        s = scramble(h, 7)
        assert check_axioms(s).passed
        assert check_all_associativity(s).passed

    def test_deterministic(self):
        h = standard(Z4, range(4), 2)
        assert scramble(h, 3).to_json() == scramble(h, 3).to_json()
        assert scramble(h, 3).to_json() != scramble(h, 4).to_json()

    def test_fault_status_preserved(self):
        bad = duplicate_horn(standard(Z2, range(3), 2))
        for seed in range(20):
            s = scramble(bad, seed)
            report = check_axioms(s)
            assert not report.passed
            assert any(c.axiom == "horn-uniqueness" for c in report.failures())

    def test_metamorphic_pass_status(self):
        h = standard(Z2, range(4), 2)
        for seed in range(100):
            assert check_axioms(scramble(h, seed)).passed


class TestJson:
    def test_roundtrip_bytes(self):
        h = standard(Z4, range(4), 2)
        text = h.to_json()
        assert from_json(text).to_json() == text

    def test_roundtrip_arity3(self):
        h = scramble(standard(Z2, range(5), 3), 11)
        assert from_json(h.to_json()).to_json() == h.to_json()


class TestNontrivialLowerFibers:
    def test_duplicated_lower_element_still_checks(self):
        # the generated models keep sorts below the top singleton, but
        # the representation must accept richer lower fibers
        h = standard(Z2, range(4), 3)
        fibers = {c: ws for c, ws in h.fibers.items()}
        pi = dict(h.pi)
        twin = "p2:0,1#twin"
        fibers[(0, 1)] = tuple(sorted(fibers[(0, 1)] + (twin,)))
        pi[twin] = pi["p2:0,1"]
        # retarget one top element's projection at the twin
        w = h.fiber((0, 1, 2))[0]
        slot = pi[w].index("p2:0,1")
        new_tuple = pi[w][:slot] + (twin,) + pi[w][slot + 1 :]
        pi[w] = new_tuple
        rebuilt = polygroupoid(3, h.vertices, fibers, pi, h.q)
        report = check_axioms(rebuilt)
        # coherence still holds (the twin sits over the same pair), but
        # the retargeted element no longer interlocks with its peers
        assert any(c.axiom == "q-compatibility" and not c.passed for c in report.checks)
        assert from_json(rebuilt.to_json()).to_json() == rebuilt.to_json()

    def test_consistent_twin_passes(self):
        h = standard(Z2, range(4), 3)
        fibers = dict(h.fibers)
        pi = dict(h.pi)
        twin = "p2:0,1#twin"
        fibers[(0, 1)] = tuple(sorted(fibers[(0, 1)] + (twin,)))
        pi[twin] = pi["p2:0,1"]
        rebuilt = polygroupoid(3, h.vertices, fibers, pi, h.q)
        assert check_axioms(rebuilt).passed

