"""sympy's Smith normal form as an independent oracle for the exact
integer algebra: snf, quotient_group, cokernel and homology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhom.algebra import IntMatrix, cokernel, homology, quotient_group, snf

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors, smith_normal_form  # noqa: E402


def int_matrices(max_rows=4, max_cols=4, bound=6):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def oracle_factors(rows):
    """Diagonal of the Smith form, by sympy."""
    return tuple(abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ))


def oracle_quotient(rows, cols):
    """(invariant factors, free rank) of Z^cols modulo the row span."""
    diag = oracle_factors(rows)
    return tuple(d for d in diag if d > 1), cols - sum(1 for d in diag if d != 0)


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_snf_diagonal(rows):
    _, d, _ = snf(IntMatrix.from_rows(rows))
    expected = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    assert d.diagonal_entries() == tuple(abs(int(expected[i, i])) for i in range(min(d.rows, d.cols)))


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_quotient_group_and_cokernel(rows):
    rel = IntMatrix.from_rows(rows)
    factors, free_rank = oracle_quotient(rows, rel.cols)
    for group in (quotient_group(rel), cokernel(rel).group):
        assert (group.invariant_factors, group.free_rank) == (factors, free_rank)


@st.composite
def chain_pairs(draw):
    """(d_n, d_np1) with d_n * d_np1 = 0: a split pair [A | 0] and
    [0 ; B] conjugated by a unimodular change of basis of the middle
    group, built from elementary row operations."""
    c = draw(st.integers(1, 4))
    r = draw(st.integers(0, c))
    i = draw(st.integers(1, 3))
    j = draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    a = [[draw(entry) if k < r else 0 for k in range(c)] for _ in range(i)]
    b = [[draw(entry) if k >= r else 0 for _ in range(j)] for k in range(c)]
    p = sympy.eye(c)
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))
        if src != dst:
            p[dst, :] = p[dst, :] + draw(entry) * p[src, :]
    d_n = sympy.Matrix(a) * p.inv()
    d_np1 = p * sympy.Matrix(b)
    return [[int(x) for x in d_n.row(k)] for k in range(i)], [[int(x) for x in d_np1.row(k)] for k in range(c)]


@settings(max_examples=60, deadline=None)
@given(chain_pairs())
def test_homology(pair):
    d_n_rows, d_np1_rows = pair
    d_n, d_np1 = IntMatrix.from_rows(d_n_rows), IntMatrix.from_rows(d_np1_rows)
    # C_n / im d_np1 = H_n + C_n / ker d_n, and the last summand is free
    # (it embeds in C_{n-1}), so H_n has the torsion of coker d_np1 and
    # free rank nullity(d_n) - rank(d_np1).
    torsion, coker_free = oracle_quotient([list(col) for col in zip(*d_np1_rows)], d_np1.rows)
    rank_n = sympy.Matrix(d_n_rows).rank()
    nullity = d_n.cols - rank_n
    group = homology(d_n, d_np1)
    assert group.invariant_factors == torsion
    assert group.free_rank == nullity - (d_np1.rows - coker_free)
