import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhom import algebra, binding
from polyhom.algebra import FinAbelianGroup, abelian_group, group_from_addition, iso_check
from polyhom.binding import (
    ActionTable,
    ExtractionError,
    action_law_witness,
    action_table_from_json_dict,
    extract,
    transport_classes,
    verify_action,
)
from polyhom.faults import drop_q_tuple, duplicate_horn, shift_q, tamper_action
from polyhom.polygroupoid import (
    AxiomCheck,
    AxiomReport,
    polygroupoid,
    scramble,
    standard,
    standard_with_coordinates,
)
from test_polygroupoid import CountingSet

Z2 = abelian_group(2)
Z3 = abelian_group(3)
Z4 = abelian_group(4)
Z8 = abelian_group(8)
KLEIN = abelian_group(2, 2)
TRIVIAL = FinAbelianGroup()


def native_translation_action(group, h, coords):
    """Oracle: the translation action read off the standard model's own
    coordinates."""
    action = {}
    for config in h.top_configs:
        by_coords = {coords[w]: w for w in h.fiber(config)}
        action[config] = {
            w: {g.coords: by_coords[group.add(coords[w], g)] for g in group.elements()}
            for w in h.fiber(config)
        }
    return ActionTable(group, action)


class TestTransportClasses:
    def test_hand_partition_z2(self):
        h = standard(Z2, range(3), 2)
        tc = transport_classes(h, (0, 1))
        a, b = h.fiber((0, 1))
        expected = {frozenset({(a, a), (b, b)}), frozenset({(a, b), (b, a)})}
        assert set(tc.classes) == expected

    def test_diagonal_is_one_class(self):
        for group, size in [(Z4, 4), (KLEIN, 3), (Z2, 5)]:
            h = scramble(standard(group, range(size), 2), 13)
            z = h.top_configs[0]
            tc = transport_classes(h, z)
            diag = tc.classes[tc.diagonal_index]
            assert diag == frozenset((x, x) for x in tc.fiber)

    def test_class_count_matches_order(self):
        h = standard(Z4, range(4), 2)
        tc = transport_classes(h, (1, 2))
        assert len(tc.classes) == 4


class TestExtract:
    def test_standard_z2_translation(self):
        h, coords = standard_with_coordinates(Z2, range(3), 2)
        group, act = extract(h, (0, 1))
        assert iso_check(group, Z2)
        assert act.to_json() == native_translation_action(Z2, h, coords).to_json()

    def test_trivial_group(self):
        h = standard(TRIVIAL, range(4), 2)
        group, act = extract(h, (0, 1))
        assert group.is_trivial()
        for config, ws in act.action.items():
            for w, table in ws.items():
                assert table == {(): w}

    @pytest.mark.parametrize("seed", range(12))
    def test_blind_z4(self, seed):
        h = scramble(standard(Z4, range(4), 2), seed)
        for z in h.top_configs[:2]:
            group, _ = extract(h, z)
            assert iso_check(group, Z4)

    def test_blind_klein_vs_cyclic(self):
        # order alone cannot tell these apart; the class structure must
        hk = scramble(standard(KLEIN, range(3), 2), 5)
        hc = scramble(standard(Z4, range(3), 2), 5)
        gk, _ = extract(hk, (0, 1))
        gc, _ = extract(hc, (0, 1))
        assert gk == KLEIN
        assert gc == Z4
        assert not iso_check(gk, gc)

    def test_blind_arity3(self):
        h = scramble(standard(Z4, range(4), 3), 21)
        group, act = extract(h, (0, 1, 2))
        assert iso_check(group, Z4)
        assert verify_action(h, act).passed

    def test_relabeling_invariance(self):
        base = standard(Z8, range(4), 2)
        expected, _ = extract(base, (0, 1))
        for seed in range(8):
            group, _ = extract(scramble(base, seed), (0, 1))
            assert iso_check(group, expected)

    def test_extract_action_verifies(self):
        h = scramble(standard(Z4, range(5), 2), 3)
        group, act = extract(h, (2, 4))
        report = verify_action(h, act)
        assert report.passed, report.failures()

    def test_horn_fault_raises(self):
        h = duplicate_horn(standard(Z2, range(3), 2))
        with pytest.raises(ExtractionError):
            extract(h, (0, 1))

    def test_unreadable_inputs_raise_structured_errors(self):
        h = standard(Z4, range(4), 2)
        w = h.fiber((0, 1))[0]
        misplaced = polygroupoid(2, h.vertices, h.fibers, h.pi, h.q | {(w, w, w)})
        no_flip = polygroupoid(2, h.vertices, h.fibers, h.pi, h.q - set(h.q_by_union[(0, 1, 2)]))
        for bad, stage, witness in [
            (misplaced, "q-shape", {"union": [0, 1]}),
            (no_flip, "base-fiber", {"config": [0, 1], "reason": "no Q-tuple to flip"}),
        ]:
            with pytest.raises(ExtractionError) as exc:
                extract(bad, (0, 1))
            assert (exc.value.stage, exc.value.witness) == (stage, witness)

    def test_dropped_tuple_breaks_extraction(self):
        h = drop_q_tuple(standard(Z2, range(4), 2), union=(0, 1, 2))
        with pytest.raises(ExtractionError) as exc:
            extract(h, (0, 1))
        assert exc.value.stage in {"propagation", "regularity", "difference-law"}


def _class_permutations(tc):
    """Each transport class must be the graph of a permutation of the
    fiber."""
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


def reference_extract(h, z):
    """Reference: extract as it was before its propagation ran on
    coordinate tuples, with one GroupElement per (Q-tuple, twist)."""
    n = h.arity
    z = tuple(z)
    tc = transport_classes(h, z)
    perms = _class_permutations(tc)
    fiber = tc.fiber
    index_of = {pair: i for i, cls in enumerate(tc.classes) for pair in cls}

    def compose(a, b):
        x0 = fiber[0]
        target = index_of[(x0, perms[b][perms[a][x0]])]
        for x in fiber:
            if index_of[(x, perms[b][perms[a][x]])] != target:
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
    try:
        group, to_coords, _ = group_from_addition(
            range(len(tc.classes)), lambda a, b: table[(a, b)], tc.diagonal_index
        )
    except ValueError as exc:
        raise ExtractionError("group-structure", {"reason": str(exc)}) from exc

    action = {z: {x: {to_coords[i].coords: perm[x] for i, perm in enumerate(perms)} for x in fiber}}
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
                        x2 = action[src][x][group.scale(sign, g).coords]
                        flipped = tup[:ell] + (x2,) + tup[ell + 1 :]
                        rest = flipped[:ell2] + flipped[ell2 + 1 :]
                        fillers = h.fillers.get((ell2, rest), ())
                        if len(fillers) != 1:
                            raise ExtractionError("propagation", {"config": list(face), "horn": list(rest)})
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
                            "propagation", {"config": list(face), "element": w, "reason": "incomplete orbit"}
                        )
                action[face] = new_table
                reached.add(face)
                pending.remove(face)
                progress = True
    if pending:
        raise ExtractionError("propagation", {"unreachable": [list(c) for c in pending]})
    return group, ActionTable(group, action)


def s3_groupoid(vertices, seed):
    """The n=2 groupoid with every fiber a copy of S3 and
    Q(w_bc, w_ac, w_ab) iff w_ac = w_ab.w_bc, scrambled."""
    s3 = list(itertools.permutations(range(3)))

    def name(config, p):
        return f"s:{config[0]},{config[1]}:{''.join(map(str, p))}"

    configs = list(itertools.combinations(vertices, 2))
    fibers = {c: [name(c, p) for p in s3] for c in configs}
    pi = {name(c, p): (c[1], c[0]) for c in configs for p in s3}
    q = {
        (name((b, c), y), name((a, c), tuple(x[i] for i in y)), name((a, b), x))
        for a, b, c in itertools.combinations(vertices, 3)
        for x in s3
        for y in s3
    }
    return scramble(polygroupoid(2, vertices, fibers, pi, q), seed)


def _replace_union(h, coords, union, law):
    """h with Q over the (n=2) union replaced by the tuples whose slot
    coordinates (a, b, c) satisfy law(a, b, c)."""
    fibers = [h.fiber(union[:i] + union[i + 1 :]) for i in range(3)]
    value = {w: coords[w].coords[0] for fiber in fibers for w in fiber}
    tuples = {t for t in itertools.product(*fibers) if law(*map(value.get, t))}
    return polygroupoid(2, h.vertices, h.fibers, h.pi, (h.q - set(h.q_by_union[union])) | tuples)


def _extract_cases():
    cases = [
        ("z4", scramble(standard(Z4, range(5), 2), 3)),
        ("z2xz4", scramble(standard(abelian_group(2, 4), range(5), 2), 4)),
        ("z12", scramble(standard(abelian_group(12), range(4), 2), 5)),
        ("n3-z3", scramble(standard(Z3, range(5), 3), 6)),
        ("n3-z2xz2", scramble(standard(KLEIN, range(5), 3), 7)),
        ("no-filler", scramble(drop_q_tuple(standard(Z4, range(5), 2), union=(0, 1, 2)), 1)),
        ("duplicate_horn", scramble(duplicate_horn(standard(Z4, range(5), 2)), 2)),
    ]
    h, coords = standard_with_coordinates(Z4, range(5), 2)
    # A Klein-group Latin square over (0, 2, 3): every horn has one
    # filler, but the Z/4 action does not carry over consistently.
    cases.append(("inconsistent", scramble(_replace_union(h, coords, (0, 2, 3), lambda a, b, c: a == b ^ c), 3)))
    # Slot 0 is 2 * slot 1: consistent, but odd elements are never hit.
    cases.append(("incomplete-orbit", scramble(_replace_union(h, coords, (0, 2, 3), lambda a, b, c: a == 2 * b % 4), 4)))
    # Over the base flip's subset (0, 1, 2): slot 2 equal to slot 0, so a
    # flip moves one element only; slot 2 off slot 1 by slot 0's parity,
    # so two flips agree on fiber[0].
    cases.append(("not-a-permutation", scramble(_replace_union(h, coords, (0, 1, 2), lambda a, b, c: a == c), 3)))
    cases.append(("two-to-one", scramble(_replace_union(h, coords, (0, 1, 2), lambda a, b, c: c == (b + a % 2) % 4), 3)))
    # Slot 2 is the product of slots 0 and 1 in a commutative loop that
    # is not a group: Z/6 with the intercalate on {1, 4} swapped.
    # Unscrambled, the flips are the loop's rows.
    h6, coords6 = standard_with_coordinates(abelian_group(6), range(4), 2)
    loop = lambda a, b, c: c == (a + b + 3 * (a % 3 == b % 3 == 1)) % 6
    cases.append(("non-associative", _replace_union(h6, coords6, (0, 1, 2), loop)))
    h4 = standard(Z4, range(4), 2)
    gone = set(h4.fiber((0, 1)))
    pi = {w: t for w, t in h4.pi.items() if w not in gone}
    q = {t for t in h4.q if not gone & set(t)}
    cases.append(("empty-fiber", polygroupoid(2, h4.vertices, {**h4.fibers, (0, 1): ()}, pi, q)))
    cut = h4.q - set(h4.q_by_union[(0, 2, 3)]) - set(h4.q_by_union[(1, 2, 3)])
    cases.append(("unreachable", scramble(polygroupoid(2, h4.vertices, h4.fibers, h4.pi, cut), 5)))
    cases += [
        # Breaks the action law; extract still reads a Z/4 table.
        ("F1", scramble(drop_q_tuple(h4, union=(1, 2, 3)), 7)),
        ("shift_q-late", scramble(shift_q(standard(Z4, range(5), 2), unions=[(2, 3, 4)]), 8)),
        ("drop_q_tuple-z8", scramble(drop_q_tuple(standard(Z8, range(5), 2), union=(1, 2, 3)), 9)),
        ("z32-v4", scramble(standard(abelian_group(32), range(4), 2), 10)),
        ("n3-z4-v6", scramble(standard(Z4, range(6), 3), 11)),
        ("n4-z2-v6", scramble(standard(Z2, range(6), 4), 12)),
        # A non-abelian vertex group: the flips do not commute.
        ("s3", s3_groupoid(range(4), 3)),
    ]
    return [pytest.param(h, id=name) for name, h in cases]


def _outcome(fn, h):
    try:
        group, act = fn(h, h.top_configs[0])
    except ExtractionError as exc:
        return exc.stage, exc.witness
    return group, act.to_json()


def assert_matches_reference(h):
    """Where the reference's table passes verify_action, extract returns
    the same group and table.  Elsewhere extract raises, or returns a
    table whose first verify_action failure fails again."""
    z = h.top_configs[0]
    try:
        expected = reference_extract(h, z)
    except ExtractionError:
        expected = None
    if expected is not None and verify_action(h, expected[1]).passed:
        group, act = extract(h, z)
        assert (group, act.to_json()) == (expected[0], expected[1].to_json())
        return
    try:
        _, act = extract(h, z)
    except ExtractionError:
        return
    assert action_law_refails(h, act, action_law_witness(h, act))


class TestExtractWork:
    @pytest.mark.parametrize("h", _extract_cases())
    def test_matches_reference(self, h):
        assert_matches_reference(h)

    def test_cases_reach_every_propagation_witness(self):
        outcomes = {p.id: _outcome(extract, *p.values) for p in _extract_cases()}
        shapes = {
            "no-filler": {"config", "horn"},
            "incomplete-orbit": {"config", "element", "reason"},
            "unreachable": {"unreachable"},
        }
        for name, keys in shapes.items():
            stage, witness = outcomes[name]
            assert stage == "propagation" and witness.keys() == keys
        assert outcomes["incomplete-orbit"][1]["reason"] == "incomplete orbit"

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from([(Z2, 2), (Z3, 2), (Z4, 2), (KLEIN, 2), (abelian_group(6), 2), (Z2, 3), (Z3, 3)]),
        extra=st.integers(1, 2),
        seed=st.integers(0, 10**6),
        fault=st.sampled_from([None, drop_q_tuple, shift_q]),
        data=st.data(),
    )
    def test_matches_reference_on_random_instances(self, shape, extra, seed, fault, data):
        group, n = shape
        h = standard(group, range(n + extra), n)
        if fault is not None:
            union = data.draw(st.sampled_from(sorted(h.q_by_union)))
            h = drop_q_tuple(h, union=union) if fault is drop_q_tuple else shift_q(h, unions=[union])
        assert_matches_reference(scramble(h, seed))

    def test_never_calls_pair_transport(self, monkeypatch):
        class PairTransport(Exception):
            pass

        def refuse(*args):
            raise PairTransport

        monkeypatch.setattr(binding, "transport_classes", refuse)
        monkeypatch.setattr(binding, "_transport_buckets", refuse)
        for group, size, arity in [
            (abelian_group(16), 5, 2), (abelian_group(4, 4), 5, 2), (abelian_group(12), 5, 2), (Z3, 5, 3)
        ]:
            h = scramble(standard(group, range(size), arity), 2)
            found, act = extract(h, h.top_configs[0])
            assert found == group and verify_action(h, act).passed
        for p in _extract_cases():
            _outcome(extract, *p.values)

    def test_relation_rows_on_a_generating_set(self, monkeypatch):
        # Z/16: one relation per generator, k <= log2 16 = 4 of them; a
        # relation per (element, generator) gave up to 4 * 16 + 1 rows.
        h = scramble(standard(abelian_group(16), range(5), 2), 1)
        shapes = []
        cokernel = algebra.cokernel

        def recording(rel):
            shapes.append((rel.rows, rel.cols))
            return cokernel(rel)

        monkeypatch.setattr(algebra, "cokernel", recording)
        group, _ = extract(h, h.top_configs[0])
        assert group.invariant_factors == (16,)
        assert len(shapes) == 1 and shapes[0][0] == shapes[0][1] <= 4

    def test_group_element_calls_bounded(self, monkeypatch):
        # Propagation made a validated element per (Q-tuple, twist), 36 880
        # calls in all; on coordinate tuples it makes none, and presenting
        # the group makes one per element.
        h = scramble(standard(abelian_group(16), range(5), 2), 1)
        calls = []
        element = FinAbelianGroup.element

        def counting(self, coords):
            calls.append(None)
            return element(self, coords)

        monkeypatch.setattr(FinAbelianGroup, "element", counting)
        extract(h, h.top_configs[0])
        assert len(calls) <= 2 * 16**2


class TestVerifyAction:
    def test_native_action_passes(self):
        for group, size, arity in [(Z4, 4, 2), (Z2, 4, 3), (KLEIN, 4, 2)]:
            h, coords = standard_with_coordinates(group, range(size), arity)
            act = native_translation_action(group, h, coords)
            report = verify_action(h, act)
            assert report.passed, report.failures()

    def test_tampered_action_fails_with_witness(self):
        h, coords = standard_with_coordinates(Z4, range(4), 2)
        act = tamper_action(native_translation_action(Z4, h, coords))
        report = verify_action(h, act)
        assert not report.passed
        fail = report.failures()[0]
        assert fail.witness is not None

    def test_witness_recheckable(self):
        h, coords = standard_with_coordinates(Z2, range(3), 2)
        act = tamper_action(native_translation_action(Z2, h, coords))
        report = verify_action(h, act)
        bad = next((c for c in report.failures() if c.axiom == "q-action-law"), None)
        if bad is not None:
            tup = tuple(bad.witness["tuple"])
            gammas = [Z2.element(tuple(g)) for g in bad.witness["gammas"]]
            image = tuple(
                act.apply(h.config_of[w], g, w) for w, g in zip(tup, gammas)
            )
            assert (image in h.q) != bad.witness["alternating_sum_zero"]


class TestActionJson:
    def test_roundtrip(self):
        h = scramble(standard(Z4, range(4), 2), 2)
        _, act = extract(h, (0, 1))
        d = act.to_json_dict()
        back = action_table_from_json_dict(d)
        assert back.to_json() == act.to_json()

    def test_trivial_roundtrip(self):
        h = standard(TRIVIAL, range(3), 2)
        _, act = extract(h, (0, 1))
        back = action_table_from_json_dict(act.to_json_dict())
        assert back.to_json() == act.to_json()


def reference_verify_action(h, act):
    """The exhaustive verify_action the linear Q-law replaced: |G|^3
    additivity and regularity scans per fiber, every Q-tuple under
    every twist."""
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


def law_witness_refails(h, act, witness):
    """Re-check a q-action-law witness from the instance and the table
    alone."""
    if "union" in witness:
        union = tuple(witness["union"])
        unions = {tuple(sorted({v for w in t for v in h.config_of[w]})) for t in h.q}
        return witness["reason"] == "no Q-tuple" and union not in unions
    group = act.group
    tup = tuple(witness["tuple"])
    gammas = [group.element(g) for g in witness["gammas"]]
    image = tuple(act.apply(h.config_of[w], g, w) for w, g in zip(tup, gammas))
    alt_zero = group.alternating_sum(gammas) == group.zero()
    return (
        tup in h.q
        and alt_zero == witness["alternating_sum_zero"]
        and (image in h.q) == witness["image_in_q"]
        and alt_zero != (image in h.q)
    )


def action_law_refails(h, act, law):
    """Re-check the first failed check of verify_action, as
    `action_law_witness` gives it, from the instance and the table
    alone: a q-action-law witness, or an action that is not additive."""
    witness = law["witness"]
    if law["axiom"] == "q-action-law":
        return law_witness_refails(h, act, witness)
    group = act.group
    g, s = (group.element(c) for c in witness["gammas"])
    config, w = witness["config"], witness["element"]
    return (
        law["axiom"] == "action-validity"
        and witness["reason"] == "not additive"
        and act.apply(config, g, act.apply(config, s, w)) != act.apply(config, group.add(g, s), w)
    )


def _non_additive(act, config):
    """Swap the images of 1 and 2 on every element of one fiber: zero
    still fixes everything and each element still moves bijectively,
    but 1 + 1 no longer acts as 2."""
    table = {c: {w: dict(m) for w, m in ws.items()} for c, ws in act.action.items()}
    for m in table[config].values():
        m[(1,)], m[(2,)] = m[(2,)], m[(1,)]
    return ActionTable(act.group, table)


def _non_regular(act, config):
    """Let 2 act as the identity on one fiber: every element is then
    fixed by two twists."""
    table = {c: {w: dict(m) for w, m in ws.items()} for c, ws in act.action.items()}
    for w, m in table[config].items():
        m[(2,)] = w
    return ActionTable(act.group, table)


def _differential_cases():
    cases = []
    for name, group, size, arity in [
        ("z4", Z4, 5, 2), ("z2xz4", abelian_group(2, 4), 5, 2), ("n3-z3", Z3, 5, 3)
    ]:
        h = scramble(standard(group, range(size), arity), 3)
        cases.append((name, h, extract(h, h.top_configs[0])[1]))
    cases.append(("tamper_action", cases[0][1], tamper_action(cases[0][2])))

    h, coords = standard_with_coordinates(Z4, range(5), 2)
    act = native_translation_action(Z4, h, coords)
    for union in [(0, 1, 2), (1, 2, 3), (2, 3, 4)]:
        cases.append((f"drop_q_tuple{union}", drop_q_tuple(h, union=union), act))
    cases.append(("shift_q", shift_q(h, unions=[(1, 2, 3)]), act))
    cases.append(("non_additive", h, _non_additive(act, (1, 3))))
    cases.append(("non_regular", h, _non_regular(act, (2, 4))))
    cases.append(("over_full", duplicate_horn(h), act))
    emptied = polygroupoid(2, h.vertices, h.fibers, h.pi, h.q - set(h.q_by_union[(1, 2, 4)]))
    cases.append(("empty_union", emptied, act))

    hk, coords = standard_with_coordinates(abelian_group(2, 4), range(5), 2)
    cases.append(("shift_q-z2xz4", shift_q(hk, unions=[(0, 2, 3)]),
                  native_translation_action(abelian_group(2, 4), hk, coords)))
    return [pytest.param(h, act, id=name) for name, h, act in cases]


class TestLinearQLaw:
    @pytest.mark.parametrize("h,act", _differential_cases())
    def test_matches_exhaustive_scan(self, h, act):
        report = verify_action(h, act)
        expected = reference_verify_action(h, act)
        validity, regular, law = report.checks
        assert [c.axiom for c in report.checks] == [c.axiom for c in expected.checks]
        assert validity.passed == expected.checks[0].passed
        assert regular == expected.checks[1]
        # The linear law also asks for a Q-tuple over every subset,
        # which the exhaustive scan over Q cannot see.
        every_union = all(
            h.q_by_union.get(u) for u in itertools.combinations(h.vertices, h.arity + 1)
        )
        assert law.passed == (expected.checks[2].passed and every_union)
        if not law.passed:
            assert law_witness_refails(h, act, law.witness)
        if not (validity.passed and regular.passed):
            assert report == expected

    def test_witness_kinds(self):
        cases = {p.id: p.values for p in _differential_cases()}
        kinds = {
            name: verify_action(*cases[name]).checks[2].witness
            for name in ("drop_q_tuple(1, 2, 3)", "over_full", "empty_union")
        }
        assert kinds["drop_q_tuple(1, 2, 3)"]["image_in_q"] is False
        assert kinds["over_full"]["image_in_q"] is True
        assert kinds["empty_union"] == {"union": [1, 2, 4], "reason": "no Q-tuple"}
        assert verify_action(*cases["non_additive"]).checks[0].witness["reason"] == "not additive"

    def test_membership_tests_linear_in_q(self):
        # 640 Q-tuples; twisting each by all 8^3 vectors makes 327 680.
        h = scramble(standard(Z8, range(5), 2), 1)
        _, act = extract(h, h.top_configs[0])
        counted = dataclasses.replace(h, q=CountingSet(h.q))
        assert verify_action(counted, act).passed
        assert counted.q.calls <= 2 * len(h.q)

    def test_missing_top_fiber_fails_validity(self):
        h = standard(Z2, range(4), 2)
        _, act = extract(h, (0, 1))
        missing = h.top_configs[2]
        partial = ActionTable(act.group, {c: ws for c, ws in act.action.items() if c != missing})
        report = verify_action(h, partial)
        assert report.checks[0].witness == {"config": list(missing), "reason": "fiber mismatch"}
        assert h.fiber(missing) and missing not in partial.action
        # The law falls back to the exhaustive scan, where a slot with
        # no table has no image even under the zero twist.
        law = report.checks[2].witness
        assert any(h.config_of[w] == missing for w in law["tuple"])
        assert law["gammas"] == [[0], [0], [0]] and law["image_in_q"] is False
