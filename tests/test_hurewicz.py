import copy
import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhom.binding
import polyhom.hurewicz
from polyhom.algebra import FinAbelianGroup, abelian_group, group_from_addition, iso_check
from polyhom.binding import ActionTable, base_config, extract, verify_action
from polyhom.faults import drop_q_tuple, shift_q, tamper_action
from polyhom.hurewicz import (
    AbstractFace,
    SimplexDatum,
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
from polyhom.polygroupoid import from_json, scramble, standard, standard_with_coordinates

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

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["z4", "z3-arity3", "shift"]), data=st.data())
    def test_boundary_sum_independent_of_twists(self, name, data):
        # under the action law the boundary sum is the same for every
        # twist vector (verdict's proof), on failing subsets as well
        h, group, act = _boundary_instance(name)
        elements = list(group.elements())
        pair_keys = list(itertools.combinations(range(h.arity + 2), 2))
        for big in itertools.combinations(h.vertices, h.arity + 2):
            vec = data.draw(st.lists(st.sampled_from(elements), min_size=len(pair_keys), max_size=len(pair_keys)))
            twisted = cosimplex_datum(h, group, big, twists=dict(zip(pair_keys, vec)))
            zero = cosimplex_datum(h, group, big)
            assert check_boundary_zero(h, act, twisted) == check_boundary_zero(h, act, zero)


@functools.cache
def _boundary_instance(name):
    h = {
        "z4": lambda: scramble(standard(Z4, range(5), 2), 3),
        "z3-arity3": lambda: scramble(standard(abelian_group(3), range(5), 3), 4),
        "shift": lambda: scramble(shift_q(standard(Z4, range(5), 2), unions=[(1, 2, 3)]), 5),
    }[name]()
    group, act = extract(h, base_config(h))
    assert verify_action(h, act).passed
    return h, group, act


def _recheck_identity_witness(h, group, act, fake, witness):
    """A stage-3 witness is one unit twist u of the base simplex at which
    fake(u) - fake(0) differs from (-1)^(n+1) alt(u); the real defect
    obeys the identity there."""
    base = min(itertools.combinations(h.vertices, h.arity + 1))
    u = [group.element(c) for c in witness["twists"]]
    assert sum(g != group.zero() for g in u) == 1
    alt = group.alternating_sum(u)
    expected = alt if h.arity % 2 else group.neg(alt)
    assert witness["expected"] == list(expected.coords)
    for eps, fails in ((fake, True), (epsilon, False)):
        defect = group.sub(
            eps(h, act, simplex_datum(h, group, base, twists=u)), eps(h, act, simplex_datum(h, group, base))
        )
        assert (defect != expected) is fails
        if fails:
            assert witness["defect"] == list(defect.coords)


def _parent_stages_3_5(h):
    """Reference for verdict stages 3 and 5: one pass over all
    |G|^(n+1) twist vectors of the base simplex.  Stage 3 keys each
    vector by alt(t) and by eps(t) and fails on a collision in either
    direction; stage 5 takes the first vector of each defect as its
    class representative, checks additivity on every pair of them and
    presents their table.  Returns (stage 3 passed, pocket group or None
    when additivity fails)."""
    group, act = extract(h, base_config(h))
    n = h.arity
    base = min(itertools.combinations(h.vertices, n + 1))

    def eps(t):
        return epsilon(h, act, simplex_datum(h, group, base, twists=t))

    by_key, by_eps, collided = {}, {}, False
    for t in itertools.product(group.elements(), repeat=n + 1):
        key, e = group.alternating_sum(t), eps(t)
        collided |= by_key.setdefault(key, e) != e or by_eps.setdefault(e, (key, t))[0] != key
    eps0 = next(iter(by_eps))  # the zero vector comes first
    keys = [group.sub(e, eps0) for e in by_eps]
    reps = [t for _, t in by_eps.values()]
    class_of = {k: i for i, k in enumerate(keys)}
    table = {}
    for a, b in itertools.product(range(len(reps)), repeat=2):
        d = group.sub(eps(tuple(map(group.add, reps[a], reps[b]))), eps0)
        if d != group.add(keys[a], keys[b]):
            return not collided, None
        table[a, b] = class_of[d]
    pocket, _, _ = group_from_addition(range(len(reps)), lambda a, b: table[a, b], 0)
    return not collided, pocket


def _parent_stage_4(h):
    """Reference for verdict stage 4: twist the zero-twist datum of every
    (n+1)-subset by every group element and collect the defect shifts.
    Returns the first subset whose shifts miss an element, or None."""
    group, act = extract(h, base_config(h))
    for big in itertools.combinations(h.vertices, h.arity + 1):
        g0 = simplex_datum(h, group, big)
        base = epsilon(h, act, g0)
        reached = {group.sub(epsilon(h, act, twist_by(group, g0, gamma)), base) for gamma in group.elements()}
        if reached != set(group.elements()):
            return list(big)
    return None


DIFFERENTIAL = {
    "n2-z3": lambda: scramble(standard(abelian_group(3), range(4), 2), 11),
    "n2-z4": lambda: scramble(standard(Z4, range(4), 2), 12),
    "n2-z2+z2": lambda: scramble(standard(abelian_group(2, 2), range(4), 2), 13),
    "n2-z8": lambda: scramble(standard(abelian_group(8), range(4), 2), 14),
    "n3-z2": lambda: scramble(standard(Z2, range(5), 3), 15),
    "n3-z3": lambda: scramble(standard(abelian_group(3), range(5), 3), 16),
    "shift-z4": lambda: shift_q(standard(Z4, range(4), 2), unions=[(0, 1, 2)]),
    "shift-z8": lambda: scramble(shift_q(standard(abelian_group(8), range(5), 2), unions=[(2, 3, 4)]), 3),
    "shift-n3-z2": lambda: shift_q(standard(Z2, range(5), 3)),
}

# sha256 of verdict(h).to_json() on the verdict benchmark's instance
# classes: the bytes that the full enumerations of `_parent_stage_4` and
# `_parent_stages_3_5` give, which reading stages 4 and 5 off the defect
# identity must keep.
PASSING_VERDICT_SHA256 = {
    "n2-z3": "9faf15e91f63056c41bb54c6414ef0c6442dc790e2375b9f60f5146734becf55",
    "n2-z4": "01bf13701d9c799570905d272e6ae78f601e7cc5249ee35c73622dd25ab9a2b3",
    "n2-z2+z2": "9c00c9cad5deb36d25cf8d11c368e6b3e966fea0a9875b1e6d01cfba6ba1ffe3",
    "n2-z8": "24f6e97585867e54b133b809f918a84617341d17b029f4420227df128373b380",
    "n3-z2": "cbc9ee23329b08cb1de4b53d2d2d78aa90a954264b4736bff349f22005189251",
    "n3-z3": "15bef68bdc1fca150dfcb2683923a04371f9efcb4da95efb3115a24199bd7ef6",
}


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
        for h in [
            shift_q(standard(Z4, range(4), 2), unions=[(0, 1, 2)]),
            scramble(shift_q(standard(abelian_group(8), range(5), 2), unions=[(2, 3, 4)]), 3),
            shift_q(standard(Z2, range(5), 3)),  # uniform shift, odd arity
        ]:
            report = verdict(h)
            assert report.stages["extract"]["passed"]
            stage = report.stages["boundary-vanishing"]
            assert not stage["passed"] and not report.passed
            # the witness re-fails at zero twists; checked counts the
            # subsets up to and including it
            group, act = extract(h, base_config(h))
            big = tuple(stage["witness"]["vertices"])
            assert not check_boundary_zero(h, act, cosimplex_datum(h, group, big))
            subsets = list(itertools.combinations(h.vertices, h.arity + 2))
            assert stage["checked"] == 1 + subsets.index(big)

    def test_action_law_failure_stops_at_extract(self):
        # extract returns an action here, but it breaks the Q-action law
        h = scramble(drop_q_tuple(standard(Z4, range(4), 2), union=(1, 2, 3)), 7)
        report = verdict(h)
        assert list(report.stages) == ["extract"] and not report.passed
        assert report.group is None and report.pocket_group is None
        witness = report.stages["extract"]["witness"]
        assert witness["axiom"] == "q-action-law"
        _, act = extract(h, base_config(h))
        again = verify_action(h, act).failures()
        assert again and (again[0].axiom, again[0].witness) == (witness["axiom"], witness["witness"])

    def test_tampered_action_fails_extract(self, monkeypatch):
        h = standard(Z4, range(4), 2)
        group, act = extract(h, base_config(h))
        tampered = tamper_action(act)
        monkeypatch.setattr(polyhom.hurewicz, "extract", lambda h, z: (group, tampered))
        report = verdict(h)
        assert list(report.stages) == ["extract"] and not report.passed
        witness = report.stages["extract"]["witness"]
        again = verify_action(h, tampered).failures()
        assert again and (again[0].axiom, again[0].witness) == (witness["axiom"], witness["witness"])

    def test_arity3_sampled(self):
        # arity 3 over five vertices: one 5-subset, checked at zero twists
        report = verdict(standard(Z2, range(5), 3))
        assert report.passed
        assert report.stages["boundary-vanishing"]["checked"] == 1

    def test_defect_stage_exhaustive_over_vectors(self):
        # the proof covers all 8^3 twist vectors; the stage evaluates the
        # zero twist and the (n+1).ngens unit twists
        report = verdict(standard(abelian_group(8), range(4), 2))
        stage = report.stages["defect-vs-natural-iso"]
        assert stage["passed"] and stage["checked"] == 1 + 3 * 1
        assert report.stages["pocket-group"] == {"passed": True, "classes": 8}
        report = verdict(standard(abelian_group(2, 4), range(5), 3))
        assert report.stages["defect-vs-natural-iso"]["checked"] == 1 + 4 * 2
        assert report.passed and report.stages["pocket-group"]["classes"] == 8

    @pytest.mark.parametrize(
        "fake, moved",
        [
            pytest.param(lambda h, act, g: act.group.zero(), 0, id="constant"),
            # not a function of alt(t); twist_by(g, s) moves it by -s
            pytest.param(lambda h, act, g: g.twists[-1], 3, id="last-twist"),
        ],
    )
    def test_defect_stage_witness(self, monkeypatch, fake, moved):
        h = standard(Z4, range(3), 2)
        group, act = extract(h, (0, 1))
        monkeypatch.setattr(polyhom.hurewicz, "epsilon", fake)
        report = verdict(h)
        stage = report.stages["defect-vs-natural-iso"]
        assert not stage["passed"] and not report.passed
        assert stage["checked"] == 1 + 3
        _recheck_identity_witness(h, group, act, fake, stage["witness"])
        # stage 4 twists the only 3-subset by the generator 1; the real
        # defect moves by 1 there
        twist = report.stages["twist-surjectivity"]
        assert twist == {"passed": False, "witness": {"vertices": [0, 1, 2], "gamma": [1], "defect": [moved]}}
        g0 = simplex_datum(h, group, (0, 1, 2))
        one = group.element((1,))
        assert group.sub(epsilon(h, act, twist_by(group, g0, one)), epsilon(h, act, g0)) == one
        assert report.stages["pocket-group"] == {"passed": False, "witness": stage["witness"]}
        assert report.pocket_group is None and report.isomorphic is False

    def test_epsilon_once_per_face_key(self, monkeypatch):
        # stage 2 checks the one 4-subset at zero twists (4 co-faces);
        # stage 3 evaluates 1 + 3 twists, stage 4 the zero twist and the
        # one generator per 3-subset, and stage 5 evaluates nothing
        real = polyhom.hurewicz.epsilon
        calls = []

        def counting(h, act, g):
            calls.append(g)
            return real(h, act, g)

        monkeypatch.setattr(polyhom.hurewicz, "epsilon", counting)
        report = verdict(standard(Z4, range(4), 2))
        assert report.passed
        assert report.stages["boundary-vanishing"]["checked"] == 1
        assert len(calls) == 4 + (1 + 3) + 4 * (1 + 1)

    def test_z64_work_count(self, monkeypatch):
        # stage 2: 4 co-faces; stage 3: the zero twist and 3 unit twists;
        # stage 4: 1 + 1 calls per 3-subset.  The group is presented
        # once, inside extract.
        calls = {"epsilon": 0, "group_from_addition": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(polyhom.hurewicz, "epsilon")
        counting(polyhom.hurewicz, "group_from_addition")
        counting(polyhom.binding, "group_from_addition")
        z64 = abelian_group(64)
        report = verdict(scramble(standard(z64, range(4), 2), 5))
        assert report.passed
        assert iso_check(report.pocket_group, z64)
        assert report.stages["pocket-group"]["classes"] == 64
        assert calls == {"epsilon": 4 + 4 + 4 * 2, "group_from_addition": 1}

    def test_constant_defect_fails_pocket_group(self, monkeypatch):
        # the pocket group is read off the identity that stage 3 checks,
        # so a constant defect, which breaks it, leaves no pocket group
        h = standard(Z4, range(4), 2)
        monkeypatch.setattr(polyhom.hurewicz, "epsilon", lambda h, act, g: act.group.zero())
        report = verdict(h)
        witness = report.stages["defect-vs-natural-iso"]["witness"]
        assert witness == {"twists": [[1], [0], [0]], "defect": [0], "expected": [3]}
        assert report.stages["pocket-group"] == {"passed": False, "witness": witness}
        assert report.pocket_group is None
        assert report.isomorphic is False and not report.passed

    def test_non_additive_defect_fails_pocket_group(self, monkeypatch):
        # eps = sigma(alt(t)) with sigma swapping 1 and 2: a bijection of
        # Z/4 that is a function of alt(t) but not a homomorphism.  The
        # identity check of stage 3 catches it at the first unit twist,
        # and stage 5 fails with that witness.  Stage 2 passes; stage 4
        # sees the last-twist shift by -1 move eps(0) = 0 to sigma(-1) = 3
        # instead of 1
        h = standard(Z4, range(4), 2)
        swap = {0: 0, 1: 2, 2: 1, 3: 3}

        def fake(h, act, g):
            return act.group.element((swap[act.group.alternating_sum(g.twists).coords[0]],))

        monkeypatch.setattr(polyhom.hurewicz, "epsilon", fake)
        report = verdict(h)
        assert report.stages["boundary-vanishing"]["passed"]
        stage = report.stages["defect-vs-natural-iso"]
        assert not stage["passed"] and not report.passed
        assert stage["witness"] == {"twists": [[1], [0], [0]], "defect": [2], "expected": [3]}
        group, act = extract(h, base_config(h))
        _recheck_identity_witness(h, group, act, fake, stage["witness"])
        assert report.stages["twist-surjectivity"] == {
            "passed": False, "witness": {"vertices": [0, 1, 2], "gamma": [1], "defect": [3]}
        }
        assert report.stages["pocket-group"] == {"passed": False, "witness": stage["witness"]}
        assert report.pocket_group is None

    def test_extract_failure_is_structured(self):
        h = from_json('{"arity":2,"vertices":[0,1,2],"fibers":{},"pi":{},"Q":[]}')
        report = verdict(h)
        assert report.stages == {
            "extract": {"passed": False, "witness": {"stage": "base-fiber", "witness": {"reason": "no top-sort fiber"}}}
        }
        assert not report.passed

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_matches_pass_over_every_vector(self, name):
        h = DIFFERENTIAL[name]()
        report = verdict(h)
        defect_passed, pocket = _parent_stages_3_5(h)
        assert report.stages["defect-vs-natural-iso"]["passed"] is defect_passed is True
        assert report.stages["twist-surjectivity"] == {"passed": True, "witness": None}
        assert _parent_stage_4(h) is None
        assert report.stages["pocket-group"] == {"passed": True, "classes": pocket.order()}
        assert report.pocket_group.invariant_factors == pocket.invariant_factors

    @pytest.mark.parametrize("name", sorted(PASSING_VERDICT_SHA256))
    def test_passing_verdict_bytes(self, name):
        report = verdict(DIFFERENTIAL[name]())
        assert report.passed
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == PASSING_VERDICT_SHA256[name]

    def test_report_json_shape(self):
        report = verdict(standard(Z2, range(3), 2))
        d = report.to_json_dict()
        assert set(d) == {"stages", "group", "pocket_group", "isomorphic"}
        assert d["isomorphic"] is True
