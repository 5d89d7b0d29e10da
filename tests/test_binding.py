import dataclasses
import itertools

import pytest

from polyhom.algebra import FinAbelianGroup, abelian_group, iso_check
from polyhom.binding import (
    ActionTable,
    ExtractionError,
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

    def test_dropped_tuple_breaks_extraction(self):
        h = drop_q_tuple(standard(Z2, range(4), 2), union=(0, 1, 2))
        with pytest.raises(ExtractionError) as exc:
            extract(h, (0, 1))
        assert exc.value.stage in {"propagation", "regularity", "difference-law"}


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
