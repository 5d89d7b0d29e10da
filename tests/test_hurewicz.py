import copy
import itertools
import math
import random

import pytest

import polyhom.hurewicz
from polyhom.algebra import FinAbelianGroup, abelian_group, iso_check
from polyhom.binding import ActionTable, base_config, extract
from polyhom.faults import shift_q
from polyhom.hurewicz import (
    AbstractFace,
    EpsilonError,
    SimplexDatum,
    _twist_vectors,
    canonical_faces,
    check_boundary_zero,
    co_face,
    cosimplex_datum,
    epsilon,
    epsilon_chain,
    natural_iso,
    simplex_datum,
    twist_by,
    verdict,
)
from polyhom.polygroupoid import scramble, standard, standard_with_coordinates

Z2 = abelian_group(2)
Z4 = abelian_group(4)
TRIVIAL = FinAbelianGroup()


def setup_z4():
    h, coords = standard_with_coordinates(Z4, range(3), 2)
    group, act = extract(h, (0, 1))
    return h, coords, group, act


def face_with_coord(h, coords, group, config, k):
    target = group.element((k,))
    sel = next(w for w in h.fiber(config) if coords[w] == target)
    return AbstractFace(f"t:{config}", config, sel)


class TestEpsilon:
    def test_frozen_value(self):
        # embedded native coordinates (1, 2, 3), zero twists:
        # 1 - 2 + x = 0 forces x = 1, so gamma moves 3 to 1, gamma = 2
        h, coords, group, act = setup_z4()
        faces = (
            face_with_coord(h, coords, Z4, (1, 2), 1),
            face_with_coord(h, coords, Z4, (0, 2), 2),
            face_with_coord(h, coords, Z4, (0, 1), 3),
        )
        g = SimplexDatum((0, 1, 2), faces, (group.zero(),) * 3)
        assert epsilon(h, act, g) == group.element((2,))

    def test_zero_coordinates(self):
        h, coords, group, act = setup_z4()
        faces = tuple(
            face_with_coord(h, coords, Z4, cfg, 0) for cfg in ((1, 2), (0, 2), (0, 1))
        )
        g = SimplexDatum((0, 1, 2), faces, (group.zero(),) * 3)
        assert epsilon(h, act, g) == group.zero()

    def test_twist_shifts_defect(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        base = epsilon(h, act, g)
        for gamma in group.elements():
            shifted = epsilon(h, act, twist_by(group, g, gamma))
            assert shifted == group.add(base, gamma)

    def test_linearity_on_chains(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        g2 = twist_by(group, g, group.element((1,)))
        total = epsilon_chain(h, act, [(1, g), (-1, g2)])
        assert total == group.sub(epsilon(h, act, g), epsilon(h, act, g2))

    def test_scrambled_instance(self):
        h = scramble(standard(Z4, range(4), 2), 9)
        group, act = extract(h, (0, 1))
        g = simplex_datum(h, group, (0, 1, 2))
        base = epsilon(h, act, g)
        shifted = epsilon(h, act, twist_by(group, g, group.element((3,))))
        assert shifted == group.add(base, group.element((3,)))


class TestCoFace:
    def test_vertices_dropped(self):
        h, coords, group, act = setup_z4()
        h4 = standard(Z4, range(4), 2)
        group4, act4 = extract(h4, (0, 1))
        datum = cosimplex_datum(h4, group4, (0, 1, 2, 3))
        assert co_face(datum, 0).vertices == (1, 2, 3)
        assert co_face(datum, 3).vertices == (0, 1, 2)

    def test_shared_pair_storage(self):
        h4 = standard(Z4, range(4), 2)
        group4, _ = extract(h4, (0, 1))
        datum = cosimplex_datum(h4, group4, (0, 1, 2, 3))
        # pair {1,2} shows up as face 1 of both co_face 1 and co_face 2
        f1 = co_face(datum, 1)
        f2 = co_face(datum, 2)
        assert f1.faces[1] is f2.faces[1]
        assert f1.faces[1] is datum.pairs[(1, 2)][0]
        shared = datum.pairs[(0, 3)][0]
        assert co_face(datum, 0).faces[2] is shared
        assert co_face(datum, 3).faces[0] is shared

    def test_cofaces_are_valid_data(self):
        h4 = standard(Z4, range(4), 2)
        group4, _ = extract(h4, (0, 1))
        datum = cosimplex_datum(h4, group4, (0, 1, 2, 3))
        for j in range(4):
            g = co_face(datum, j)
            expected = tuple(v for i, v in enumerate(datum.vertices) if i != j)
            assert g.vertices == expected
            for i, f in enumerate(g.faces):
                assert f.config == tuple(v for k, v in enumerate(g.vertices) if k != i)


class TestBoundaryZero:
    def test_exhaustive_z4_with_sign_oracle(self):
        h, coords = standard_with_coordinates(Z4, range(4), 2)
        group, act = extract(h, (0, 1))
        pair_keys = list(itertools.combinations(range(4), 2))
        canon = canonical_faces(h)
        for vec in itertools.product(group.elements(), repeat=6):
            twists = dict(zip(pair_keys, vec))
            datum = cosimplex_datum(h, group, (0, 1, 2, 3), twists=twists)
            assert check_boundary_zero(h, act, datum)
            # independent sign-cancellation oracle: each pair's native
            # coordinate enters the double alternating sum twice with
            # opposite signs, so the total must vanish identically
            total = Z4.zero()
            for j in range(4):
                g = co_face(datum, j)
                s_j = Z4.alternating_sum(
                    [Z4.add(coords[f.selector], t) for f, t in zip(g.faces, g.twists)]
                )
                total = Z4.add(total, s_j) if j % 2 == 0 else Z4.sub(total, s_j)
            assert total == Z4.zero()

    def test_zero_twists(self):
        h = standard(Z2, range(5), 3)
        group, act = extract(h, (0, 1, 2))
        datum = cosimplex_datum(h, group, (0, 1, 2, 3, 4))
        assert check_boundary_zero(h, act, datum)

    def test_planted_shift_detected(self):
        h = shift_q(standard(Z4, range(4), 2), unions=[(0, 1, 2)])
        group, act = extract(h, (0, 1))
        found_false = False
        pair_keys = list(itertools.combinations(range(4), 2))
        for vec in itertools.product(group.elements(), repeat=6):
            datum = cosimplex_datum(h, group, (0, 1, 2, 3), twists=dict(zip(pair_keys, vec)))
            if not check_boundary_zero(h, act, datum):
                found_false = True
                break
        assert found_false


class TestNaturalIso:
    def test_identity_certificate(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        cert = natural_iso(group, g, g)
        assert cert == (group.zero(),) * 3

    def test_balanced_delta_present(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        delta = (group.element((1,)), group.element((1,)), group.zero())
        g2 = SimplexDatum(g.vertices, g.faces, tuple(group.add(t, d) for t, d in zip(g.twists, delta)))
        assert natural_iso(group, g, g2) == delta
        assert epsilon(h, act, g) == epsilon(h, act, g2)

    def test_unbalanced_delta_absent(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        delta = (group.element((1,)), group.zero(), group.zero())
        g2 = SimplexDatum(g.vertices, g.faces, tuple(group.add(t, d) for t, d in zip(g.twists, delta)))
        assert natural_iso(group, g, g2) is None
        diff = group.sub(epsilon(h, act, g2), epsilon(h, act, g))
        assert diff == group.element((3,))  # differs by -1

    def test_mismatched_faces_rejected(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        other_face = face_with_coord(h, coords, Z4, (1, 2), 1)
        g2 = SimplexDatum(g.vertices, (other_face,) + g.faces[1:], g.twists)
        with pytest.raises(ValueError):
            natural_iso(group, g, g2)

    def test_equivalence_matches_defect_exhaustively(self):
        h = standard(Z4, range(3), 2)
        group, act = extract(h, (0, 1))
        vectors = list(itertools.product(group.elements(), repeat=3))
        for t1 in vectors[:16]:
            g1 = simplex_datum(h, group, (0, 1, 2), twists=t1)
            for t2 in vectors:
                g2 = simplex_datum(h, group, (0, 1, 2), twists=t2)
                same = epsilon(h, act, g1) == epsilon(h, act, g2)
                assert same == (natural_iso(group, g1, g2) is not None)


class TestDifference:
    def test_unique_gamma(self):
        h, coords, group, act = setup_z4()
        for config, ws in act.action.items():
            for w, orbit in ws.items():
                for gcoords, img in orbit.items():
                    assert act.difference(config, w, img) == group.element(gcoords)

    def test_ambiguous_pair_is_none(self):
        h, coords, group, act = setup_z4()
        action = copy.deepcopy(act.action)
        w = h.fiber((0, 1))[0]
        orbit = action[(0, 1)][w]
        lost = orbit[(1,)]
        orbit[(1,)] = orbit[(2,)]  # gammas 1 and 2 now both send w to one image
        edited = ActionTable(group, action)
        assert edited.difference((0, 1), w, orbit[(2,)]) is None
        assert edited.difference((0, 1), w, lost) is None
        assert edited.difference((0, 1), w, orbit[(3,)]) == group.element((3,))
        assert act.difference((0, 1), w, lost) == group.element((1,))


class TestTwistBy:
    def test_zero_noop(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        assert twist_by(group, g, group.zero()) == g

    def test_frozen_shift(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        # move the defect to 2 first, then shift by 3: 2 + 3 = 1 mod 4
        g2 = twist_by(group, g, group.sub(group.element((2,)), epsilon(h, act, g)))
        assert epsilon(h, act, g2) == group.element((2,))
        g3 = twist_by(group, g2, group.element((3,)))
        assert epsilon(h, act, g3) == group.element((1,))

    def test_additive_iteration(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        a, b = group.element((1,)), group.element((3,))
        assert twist_by(group, twist_by(group, g, a), b) == twist_by(group, g, group.add(a, b))

    def test_pocket_shadow_difference(self):
        h, coords, group, act = setup_z4()
        g = simplex_datum(h, group, (0, 1, 2))
        gamma = group.element((1,))
        g2 = twist_by(group, g, gamma)
        diff = group.sub(epsilon(h, act, g), epsilon(h, act, g2))
        assert diff == group.neg(gamma)
        assert natural_iso(group, g, g2) is None


class TestVerdict:
    def test_standard_z4(self):
        report = verdict(standard(Z4, range(4), 2))
        assert report.passed, report.stages
        assert iso_check(report.pocket_group, Z4)
        assert report.stages["boundary-vanishing"]["exhaustive"]

    def test_scrambled(self):
        for seed in (1, 17):
            report = verdict(scramble(standard(Z4, range(4), 2), seed))
            assert report.passed
            assert iso_check(report.pocket_group, Z4)

    def test_trivial_group(self):
        report = verdict(standard(TRIVIAL, range(3), 2))
        assert report.passed
        assert report.pocket_group.is_trivial()

    def test_planted_shift_fails_boundary_stage(self):
        h = shift_q(standard(Z4, range(4), 2), unions=[(0, 1, 2)])
        report = verdict(h)
        assert not report.passed
        assert not report.stages["boundary-vanishing"]["passed"]
        assert report.stages["boundary-vanishing"]["witness"] is not None

    def test_boundary_witness_rechecked(self, monkeypatch):
        h = shift_q(standard(Z4, range(4), 2), unions=[(0, 1, 2)])
        monkeypatch.setattr(polyhom.hurewicz, "check_boundary_zero", lambda h, act, g: True)
        with pytest.raises(AssertionError, match="disagrees with check_boundary_zero"):
            verdict(h)

    def test_arity3_sampled(self):
        report = verdict(standard(Z2, range(5), 3), samples=500)
        assert report.passed
        assert not report.stages["boundary-vanishing"]["exhaustive"]

    def test_defect_stage_exhaustive_over_vectors(self):
        report = verdict(standard(abelian_group(8), range(4), 2))
        stage = report.stages["defect-vs-natural-iso"]
        assert stage["passed"] and stage["checked"] == 8**3
        assert "exhaustive" not in stage

    @pytest.mark.parametrize(
        "fake, equal_defect",
        [
            (lambda h, act, g: act.group.zero(), True),  # not injective
            (lambda h, act, g: g.twists[-1], False),  # not a function of alt(t)
        ],
    )
    def test_defect_stage_witness(self, monkeypatch, fake, equal_defect):
        h = standard(Z4, range(3), 2)
        group, act = extract(h, (0, 1))
        monkeypatch.setattr(polyhom.hurewicz, "epsilon", fake)
        stage = verdict(h).stages["defect-vs-natural-iso"]
        assert not stage["passed"]
        witness = stage["witness"]
        assert witness["equal_defect"] is equal_defect
        assert witness["certificate"] is not equal_defect
        g1, g2 = (
            simplex_datum(h, group, (0, 1, 2), twists=[group.element(c) for c in t])
            for t in witness["twists"]
        )
        assert (fake(h, act, g1) == fake(h, act, g2)) is witness["equal_defect"]
        assert (natural_iso(group, g1, g2) is not None) is witness["certificate"]

    def test_epsilon_once_per_face_key(self, monkeypatch):
        # stage 2 is exhaustive here (4096 vectors over one 4-subset), yet
        # each of its 4 co-faces has only 4^3 twist keys; stage 3 needs 4^3
        # more calls and stage 4 needs 1 + 4 per 3-subset
        real = polyhom.hurewicz.epsilon
        calls = []

        def counting(h, act, g):
            calls.append(g)
            return real(h, act, g)

        monkeypatch.setattr(polyhom.hurewicz, "epsilon", counting)
        report = verdict(standard(Z4, range(4), 2))
        assert report.passed
        assert report.stages["boundary-vanishing"]["checked"] == 4**6
        assert len(calls) <= 4 * 4**3 + 4**3 + 4 * (1 + 4)

    @pytest.mark.parametrize("order, vertices, samples", [(4, 4, 10000), (8, 5, 200)])
    @pytest.mark.parametrize("planted", ["shift", "raise"])
    def test_boundary_stage_matches_reference_loop(self, monkeypatch, order, vertices, samples, planted):
        h = standard(abelian_group(order), range(vertices), 2)
        group, act = extract(h, base_config(h))
        pair_keys = list(itertools.combinations(range(4), 2))
        exhaustive = group.order() <= 4
        per_subset = max(1, samples // math.comb(vertices, 4))

        def walk():
            rng = random.Random(0)
            for big in itertools.combinations(h.vertices, 4):
                for vec in _twist_vectors(group, 6, exhaustive, per_subset, rng):
                    yield cosimplex_datum(h, group, big, twists=dict(zip(pair_keys, vec))), vec

        # plant a fault on the face twists of co-face 2 of the last vector;
        # they first turn up after earlier vectors have filled the memo
        data = list(walk())
        target = co_face(data[-1][0], 2).twists
        real = polyhom.hurewicz.epsilon

        def fake(h, act, g):
            if g.twists != target:
                return real(h, act, g)
            if planted == "raise":
                raise EpsilonError("planted", {"twists": [list(t.coords) for t in g.twists]})
            return act.group.add(real(h, act, g), act.group.element((1,)))

        monkeypatch.setattr(polyhom.hurewicz, "epsilon", fake)
        checked, witness = 0, None
        for datum, vec in data:
            checked += 1
            try:
                if not check_boundary_zero(h, act, datum):
                    witness = {
                        "vertices": list(datum.vertices),
                        "twists": {f"{i},{j}": list(g.coords) for (i, j), g in zip(pair_keys, vec)},
                    }
                    break
            except EpsilonError as exc:
                witness = {"reason": exc.reason, "detail": exc.witness}
                break
        assert witness is not None and checked > 1
        stage = verdict(h, samples=samples).stages["boundary-vanishing"]
        assert stage["exhaustive"] is exhaustive
        assert (stage["passed"], stage["checked"], stage["witness"]) == (False, checked, witness)

    def test_report_json_shape(self):
        report = verdict(standard(Z2, range(3), 2))
        d = report.to_json_dict()
        assert set(d) == {"stages", "group", "pocket_group", "isomorphic"}
        assert d["isomorphic"] is True
