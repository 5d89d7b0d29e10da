import itertools
import random
from fractions import Fraction

import pytest

from polyhom.algebra import (
    BoundaryCompositionError,
    FinAbelianGroup,
    GroupHom,
    IntMatrix,
    abelian_group,
    cokernel,
    group_from_addition,
    homology,
    image_solve,
    iso_check,
    quotient_group,
    snf,
)


def rational_kernel_rank(mat):
    """Independent oracle: kernel dimension by fraction-exact Gaussian
    elimination, no Smith form involved."""
    rows = [[Fraction(mat.entry(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < mat.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return mat.cols - rank


def box_vectors(dim, bound):
    import itertools

    return itertools.product(range(-bound, bound + 1), repeat=dim)


def assert_snf_contract(a, u, d, v):
    assert u * a * v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = d.diagonal_entries()
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # off-diagonal must vanish
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0


class TestSnf:
    def test_diag_2_3(self):
        # Hand Smith reduction: gcd(2,3)=1 goes first, 1*6=det stays.
        a = IntMatrix.diagonal([2, 3])
        u, d, v = snf(a)
        assert d == IntMatrix.diagonal([1, 6])
        assert_snf_contract(a, u, d, v)

    def test_identity_fixed_point(self):
        a = IntMatrix.identity(3)
        u, d, v = snf(a)
        assert d == a

    def test_zero_fixed_point(self):
        a = IntMatrix.zeros(2, 2)
        u, d, v = snf(a)
        assert d == a

    def test_random_sweep(self):
        rng = random.Random(20240817)
        for _ in range(500):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            a = IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n)))
            u, d, v = snf(a)
            assert_snf_contract(a, u, d, v)

    def test_empty_shapes(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            a = IntMatrix.zeros(*shape)
            u, d, v = snf(a)
            assert u * a * v == d


class TestQuotientGroup:
    def test_single_relation(self):
        assert quotient_group(IntMatrix.from_rows([[2]])) == FinAbelianGroup((2,))

    def test_crt_merge(self):
        assert quotient_group(IntMatrix.diagonal([2, 3])) == FinAbelianGroup((6,))

    def test_no_relations(self):
        assert quotient_group(IntMatrix.zeros(0, 2)) == FinAbelianGroup((), 2)

    def test_cokernel_project_lift_roundtrip(self):
        rel = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
        ck = cokernel(rel)
        assert ck.group == FinAbelianGroup((2, 6), 1)
        for g in [ck.group.element((1, 5, -3)), ck.group.zero(), ck.group.element((0, 1, 7))]:
            assert ck.project(ck.lift(g)) == g

    def test_project_kills_relations(self):
        rel = IntMatrix.from_rows([[4, 2], [0, 8]])
        ck = cokernel(rel)
        for i in range(rel.rows):
            assert ck.project(rel.row(i)) == ck.group.zero()


def triangle_d1():
    # vertices 0,1,2; edges (0,1),(0,2),(1,2); rows=vertices, cols=edges
    return IntMatrix.from_rows(
        [
            [-1, -1, 0],
            [1, 0, -1],
            [0, 1, 1],
        ]
    )


class TestHomology:
    def test_hollow_triangle(self):
        d1 = triangle_d1()
        d2 = IntMatrix.zeros(3, 0)
        assert rational_kernel_rank(d1) == 1  # oracle
        h = homology(d1, d2)
        assert h == FinAbelianGroup((), 1)

    def test_full_triangle(self):
        d1 = triangle_d1()
        d2 = IntMatrix.from_rows([[1], [-1], [1]])  # boundary of the 2-cell
        # oracle: every small cycle of d1 is an integer multiple of the column
        col = d2.column(0)
        for x in box_vectors(3, 3):
            if all(v == 0 for v in d1.apply(x)):
                assert any(
                    all(xi == k * ci for xi, ci in zip(x, col)) for k in range(-3, 4)
                ), f"cycle {x} not in the image"
        assert homology(d1, d2).is_trivial()

    def test_zero_maps_single_generator(self):
        h = homology(IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 1))
        assert h == FinAbelianGroup((), 1)

    def test_composition_checked(self):
        d1 = IntMatrix.from_rows([[1, 0], [0, 1]])
        d2 = IntMatrix.from_rows([[1], [0]])
        with pytest.raises(BoundaryCompositionError) as exc:
            homology(d1, d2)
        assert exc.value.column == 0

    def test_basis_change_invariance(self):
        rng = random.Random(7)

        def random_unimodular(n):
            m = IntMatrix.identity(n).row_lists()
            if n >= 2:
                for _ in range(4 * n):
                    i, j = rng.sample(range(n), 2)
                    q = rng.randint(-2, 2)
                    for c in range(n):
                        m[i][c] += q * m[j][c]
            return IntMatrix.from_rows(m)

        d1 = triangle_d1()
        d2 = IntMatrix.from_rows([[1], [-1], [1]])
        base = homology(d1, d2)
        for _ in range(25):
            p = random_unimodular(d1.rows)
            q = random_unimodular(d1.cols)
            r = random_unimodular(d2.cols)
            qi = image_solve_matrix_inverse(q)
            changed_d1 = p * d1 * q
            changed_d2 = qi * d2 * r
            assert iso_check(homology(changed_d1, changed_d2), base)


def image_solve_matrix_inverse(m):
    """Exact inverse of a unimodular matrix via column solves."""
    cols = []
    n = m.rows
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        x = image_solve(m, e)
        assert x is not None
        cols.append(x)
    return IntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


class TestImageSolve:
    def test_even(self):
        assert image_solve(IntMatrix.from_rows([[2]]), [4]) == (2,)

    def test_parity_obstruction(self):
        assert image_solve(IntMatrix.from_rows([[2]]), [3]) is None

    def test_diagonal(self):
        x = image_solve(IntMatrix.diagonal([2, 3]), [2, 3])
        assert x == (1, 1)

    def test_random_solutions_verify(self):
        rng = random.Random(99)
        for _ in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = IntMatrix(m, n, tuple(rng.randint(-4, 4) for _ in range(m * n)))
            b = tuple(rng.randint(-6, 6) for _ in range(m))
            x = image_solve(a, b)
            if x is not None:
                assert a.apply(x) == b
            elif n <= 3:
                # small-box oracle: no solution with coefficients in [-8, 8]
                assert not any(a.apply(v) == b for v in box_vectors(n, 8))


class TestIsoCheck:
    def test_equal(self):
        assert iso_check(FinAbelianGroup((2, 4)), FinAbelianGroup((2, 4)))

    def test_distinct_factors(self):
        assert not iso_check(FinAbelianGroup((8,)), FinAbelianGroup((2, 4)))

    def test_crt_normalization(self):
        assert iso_check(abelian_group(6), abelian_group(2, 3))
        assert abelian_group(2, 3) == FinAbelianGroup((6,))


class TestGroupOps:
    def test_element_arithmetic(self):
        g = FinAbelianGroup((2, 4))
        a = g.element((1, 3))
        b = g.element((1, 2))
        assert g.add(a, b) == g.element((0, 1))
        assert g.neg(a) == g.element((1, 1))
        assert g.sub(a, a) == g.zero()
        assert g.scale(3, b) == g.element((1, 2))
        assert len(list(g.elements())) == 8

    def test_alternating_sum(self):
        g = FinAbelianGroup((5,))
        es = [g.element((k,)) for k in (1, 2, 3)]
        assert g.alternating_sum(es) == g.element((2,))

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            FinAbelianGroup((3, 4))
        with pytest.raises(ValueError):
            FinAbelianGroup((1, 2))


class TestGroupHom:
    def test_identity_and_compose(self):
        g = FinAbelianGroup((4,))
        h = FinAbelianGroup((2,))
        red = GroupHom(g, h, ((1,),))
        assert red(g.element((3,))) == h.element((1,))
        assert red.compose(GroupHom.identity(g)) == red
        assert GroupHom.identity(h).compose(red) == red

    def test_order_respect_enforced(self):
        g = FinAbelianGroup((2,))
        h = FinAbelianGroup((4,))
        with pytest.raises(ValueError):
            GroupHom(g, h, ((1,),))  # 2*1 != 0 mod 4
        GroupHom(g, h, ((2,),))  # fine

    def test_surjectivity(self):
        g = FinAbelianGroup((4,))
        h = FinAbelianGroup((2,))
        assert GroupHom(g, h, ((1,),)).is_surjective()
        assert not GroupHom(g, h, ((0,),)).is_surjective()
        z = FinAbelianGroup((), 1)
        assert GroupHom(z, h, ((1,),)).is_surjective()

    def test_hom_on_torsion_to_free_rejected(self):
        g = FinAbelianGroup((2,))
        z = FinAbelianGroup((), 1)
        with pytest.raises(ValueError):
            GroupHom(g, z, ((1,),))


def full_table_presentation(elements, add, zero):
    """Reference: group_from_addition as it was before it presented the
    group on a generating set, with one generator per element and one
    relation per pair of elements."""
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    if zero not in index:
        raise ValueError("zero is not among the elements")
    rows = set()
    for a in elems:
        for b in elems:
            c = add(a, b)
            if c not in index:
                raise ValueError("addition leaves the element set")
            row = [0] * n
            row[index[a]] += 1
            row[index[b]] += 1
            row[index[c]] -= 1
            rows.add(tuple(row))
    coker = cokernel(IntMatrix.from_rows(sorted(rows), n))
    group = coker.group
    if not group.is_finite() or group.order() != n:
        raise ValueError("addition table is not a finite abelian group table")
    to_coords = {e: coker.project([int(i == j) for j in range(n)]) for i, e in enumerate(elems)}
    from_coords = {g: e for e, g in to_coords.items()}
    if len(from_coords) != n:
        raise ValueError("presentation did not separate the elements")
    return group, to_coords, from_coords


def shuffled_table(orders, seed):
    """Addition table of Z/orders[0] + ... on integer labels drawn in a
    seeded random order: (sorted labels, add, label of zero)."""
    points = list(itertools.product(*(range(d) for d in orders)))
    labels = random.Random(seed).sample(range(len(points)), len(points))
    label = dict(zip(points, labels))
    point = dict(zip(labels, points))

    def add(a, b):
        return label[tuple((x + y) % d for x, y, d in zip(point[a], point[b], orders))]

    return sorted(labels), add, label[points[0]]


# S3 as permutations of (0, 1, 2) under composition.
S3 = (
    list(itertools.permutations(range(3))),
    lambda p, q: tuple(p[q[i]] for i in range(3)),
    (0, 1, 2),
)
# A commutative loop of order 6 that is not associative: (2 + 2) + 4 = 3
# but 2 + (2 + 4) = 2.
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


class TestGroupFromAddition:
    def test_cyclic(self):
        elems = list(range(6))
        group, to_coords, from_coords = group_from_addition(elems, lambda a, b: (a + b) % 6, 0)
        assert group == FinAbelianGroup((6,))
        assert to_coords[0] == group.zero()
        assert from_coords[group.zero()] == 0
        # to_coords is an isomorphism of tables
        for a in elems:
            for b in elems:
                assert group.add(to_coords[a], to_coords[b]) == to_coords[(a + b) % 6]

    def test_klein(self):
        elems = [(a, b) for a in range(2) for b in range(2)]
        group, _, _ = group_from_addition(
            elems, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0)
        )
        assert group == FinAbelianGroup((2, 2))

    def test_non_group_rejected(self):
        with pytest.raises(ValueError):
            group_from_addition([0, 1], lambda a, b: 0, 0)

    @pytest.mark.parametrize("orders", [(12,), (16,), (4, 4), (2, 2, 4), (32,)], ids=str)
    def test_matches_full_table_presentation(self, orders):
        elems, add, zero = shuffled_table(orders, seed=sum(orders))
        group, to_coords, from_coords = group_from_addition(elems, add, zero)
        ref_group, ref_to_coords, _ = full_table_presentation(elems, add, zero)
        assert group.invariant_factors == ref_group.invariant_factors == abelian_group(*orders).invariant_factors
        for g, coords in [(group, to_coords), (ref_group, ref_to_coords)]:
            assert coords[zero] == g.zero()
            assert sorted(coords.values(), key=lambda x: x.coords) == list(g.elements())
            for a, b in itertools.product(elems, repeat=2):
                assert g.add(coords[a], coords[b]) == coords[add(a, b)]
        assert {e: from_coords[c] for e, c in to_coords.items()} == {e: e for e in elems}

    @pytest.mark.parametrize(
        "orders", [(2,), (9,), (16,), (2, 2, 2), (4, 4), (3, 9), (2, 4, 8), (256,), (16, 16)], ids=str
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_shuffled_tables(self, orders, seed):
        elems, add, zero = shuffled_table(orders, seed)
        group, to_coords, from_coords = group_from_addition(elems, add, zero)
        assert group == abelian_group(*orders)
        assert to_coords[zero] == group.zero()
        assert sorted(from_coords, key=lambda g: g.coords) == list(group.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert group.add(to_coords[a], to_coords[b]) == to_coords[add(a, b)]

    @pytest.mark.parametrize(
        "elems, add, zero, message",
        [
            pytest.param(*S3, "not a finite abelian group table", id="S3"),
            pytest.param(range(6), lambda a, b: LOOP6[a][b], 0, "not a finite abelian group table", id="loop6"),
            pytest.param(range(4), lambda a, b: (a + b) % 4, 1, "not a finite abelian group table",
                         id="zero-not-neutral"),
            pytest.param(range(4), lambda a, b: a + b, 0, "leaves the element set", id="leaves-set"),
            # 1 + 1 = 2 and 2 + 1 = 2: the multiples of 1 never return to 0.
            pytest.param(range(3), lambda a, b: a or b if 0 in (a, b) else 2, 0,
                         "not a finite abelian group table", id="multiples-never-return"),
        ],
    )
    def test_non_groups_rejected(self, elems, add, zero, message):
        with pytest.raises(ValueError, match=message):
            group_from_addition(elems, add, zero)

