"""Exact integer linear algebra and finite abelian groups.

Everything runs on plain Python integers, so nothing overflows: Smith
normal form with unimodular transforms, cokernels of relation matrices,
homology of a composable pair of integer boundary maps, and membership
in integer column spans.  Groups are kept in invariant-factor form
(each factor at least 2, each dividing the next, unit factors dropped),
which makes isomorphism testing a plain tuple comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field


class BoundaryCompositionError(ValueError):
    """Raised when a pair of boundary maps does not compose to zero."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"boundary maps do not compose to zero at column {column}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, tuple(itertools.chain.from_iterable(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag):
        diag = list(diag)
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec):
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.row(i)[k] * vec[k] for k in range(self.cols)) for i in range(self.rows))

    def is_zero(self):
        return all(e == 0 for e in self.entries)

    def diagonal_entries(self):
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class _Smith:
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix


def _smith(a: IntMatrix) -> _Smith:
    """Full Smith decomposition, tracking V inverse alongside.

    Pivot rule: smallest nonzero absolute value in the remaining block,
    moved into place by swaps.  Keeps coefficient growth tame at the
    sizes this library handles.
    """
    m, n = a.rows, a.cols
    mat = a.row_lists()
    u = IntMatrix.identity(m).row_lists()
    v = IntMatrix.identity(n).row_lists()
    vinv = IntMatrix.identity(n).row_lists()

    def swap_rows(i, k):
        mat[i], mat[k] = mat[k], mat[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in mat:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def add_row(i, k, q):
        # row i -= q * row k
        mi, mk = mat[i], mat[k]
        for j in range(n):
            mi[j] -= q * mk[j]
        ui, uk = u[i], u[k]
        for j in range(m):
            ui[j] -= q * uk[j]

    def add_col(j, k, q):
        # col j -= q * col k; inverse op on vinv is row k += q * row j
        for r in mat:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]
        vj, vk = vinv[j], vinv[k]
        for c in range(n):
            vk[c] += q * vj[c]

    def negate_row(i):
        mat[i] = [-x for x in mat[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                ri = mat[i]
                for j in range(t, n):
                    e = ri[j]
                    if e != 0 and (best is None or abs(e) < best[0]):
                        best = (abs(e), i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            if mat[t][t] < 0:
                negate_row(t)
            pivot = mat[t][t]
            for i in range(t + 1, m):
                if mat[i][t] != 0:
                    add_row(i, t, mat[i][t] // pivot)
            for j in range(t + 1, n):
                if mat[t][j] != 0:
                    add_col(j, t, mat[t][j] // pivot)
            if any(mat[i][t] != 0 for i in range(t + 1, m)) or any(
                mat[t][j] != 0 for j in range(t + 1, n)
            ):
                continue
            # pivot must divide everything further down for the chain d_i | d_{i+1}
            bad = None
            for i in range(t + 1, m):
                ri = mat[i]
                for j in range(t + 1, n):
                    if ri[j] % pivot != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, -1)
        if all(mat[i][j] == 0 for i in range(t, m) for j in range(t, n)):
            break

    dmat = IntMatrix.from_rows(mat, n)
    return _Smith(IntMatrix.from_rows(u, m), dmat, IntMatrix.from_rows(v, n), IntMatrix.from_rows(vinv, n))


def snf(a: IntMatrix):
    """Smith normal form: (U, D, V) with D = U*A*V, U and V unimodular,
    D diagonal, nonnegative, each entry dividing the next."""
    s = _smith(a)
    return s.u, s.d, s.v


@dataclass(frozen=True)
class GroupElement:
    """Element of a FinAbelianGroup: one residue per invariant factor,
    then one integer per free generator."""

    coords: tuple[int, ...]


@dataclass(frozen=True)
class FinAbelianGroup:
    """Finite(ly generated) abelian group in invariant-factor form.

    >>> FinAbelianGroup((2, 4)).order()
    8
    >>> str(FinAbelianGroup((6,)))
    'Z/6'
    >>> str(FinAbelianGroup())
    '0'
    """

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be at least 2")
        if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @property
    def ngens(self):
        return len(self.invariant_factors) + self.free_rank

    def is_trivial(self):
        return self.ngens == 0

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite():
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors)

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.ngens:
            raise ValueError("coordinate length mismatch")
        k = len(self.invariant_factors)
        reduced = tuple(c % d for c, d in zip(coords, self.invariant_factors)) + coords[k:]
        return GroupElement(reduced)

    def zero(self):
        return GroupElement((0,) * self.ngens)

    def elements(self):
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(coords)

    def add(self, a, b):
        return self.element(x + y for x, y in zip(a.coords, b.coords))

    def neg(self, a):
        return self.element(-x for x in a.coords)

    def sub(self, a, b):
        return self.element(x - y for x, y in zip(a.coords, b.coords))

    def scale(self, k, a):
        return self.element(k * x for x in a.coords)

    def alternating_sum(self, elems):
        """sum of (-1)^k elems[k], zero-based."""
        acc = self.zero()
        for k, e in enumerate(elems):
            acc = self.add(acc, e) if k % 2 == 0 else self.sub(acc, e)
        return acc

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def abelian_group(*orders) -> FinAbelianGroup:
    """Group with the given cyclic orders, normalized to invariant factors.

    Order 0 means a free Z summand; order 1 summands vanish.

    >>> abelian_group(2, 3)
    FinAbelianGroup(invariant_factors=(6,), free_rank=0)
    >>> abelian_group(2, 4)
    FinAbelianGroup(invariant_factors=(2, 4), free_rank=0)
    """
    return quotient_group(IntMatrix.diagonal(orders))


def iso_check(g1: FinAbelianGroup, g2: FinAbelianGroup) -> bool:
    """Isomorphism of finitely generated abelian groups is equality of
    the canonical form."""
    return g1.invariant_factors == g2.invariant_factors and g1.free_rank == g2.free_rank


@dataclass(frozen=True)
class Cokernel:
    """Z^cols modulo the row span of a relation matrix, with explicit
    projection and section maps."""

    group: FinAbelianGroup
    cols: int
    _v: IntMatrix = field(repr=False)
    _v_inv: IntMatrix = field(repr=False)
    _torsion_idx: tuple[int, ...] = field(repr=False)
    _rank: int = field(repr=False)

    def project(self, vec):
        """Class of an integer vector, in group coordinates."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        y = tuple(
            sum(vec[i] * self._v.entry(i, j) for i in range(self.cols)) for j in range(self.cols)
        )
        torsion = tuple(y[i] for i in self._torsion_idx)
        free = tuple(y[i] for i in range(self._rank, self.cols))
        return self.group.element(torsion + free)

    def lift(self, elem: GroupElement):
        """An integer vector representing the given class."""
        y = [0] * self.cols
        k = len(self._torsion_idx)
        for pos, i in enumerate(self._torsion_idx):
            y[i] = elem.coords[pos]
        for pos, i in enumerate(range(self._rank, self.cols)):
            y[i] = elem.coords[k + pos]
        return tuple(
            sum(y[i] * self._v_inv.entry(i, j) for i in range(self.cols)) for j in range(self.cols)
        )


def cokernel(rel: IntMatrix) -> Cokernel:
    """Quotient of Z^cols by the subgroup generated by the rows of rel."""
    s = _smith(rel)
    diag = s.d.diagonal_entries()
    rank = sum(1 for d in diag if d != 0)
    torsion_idx = tuple(i for i in range(rank) if diag[i] > 1)
    factors = tuple(diag[i] for i in torsion_idx)
    group = FinAbelianGroup(factors, rel.cols - rank)
    return Cokernel(group, rel.cols, s.v, s.v_inv, torsion_idx, rank)


def quotient_group(rel: IntMatrix) -> FinAbelianGroup:
    """Invariant factors of Z^cols / (row span of rel)."""
    return cokernel(rel).group


def homology(d_n: IntMatrix, d_np1: IntMatrix) -> FinAbelianGroup:
    """ker(d_n) / im(d_np1) for integer matrices with d_n * d_np1 = 0.

    d_n maps degree-n chains down, d_np1 maps degree-(n+1) chains down;
    columns index the higher degree in each case.
    """
    if d_n.cols != d_np1.rows:
        raise ValueError("boundary map dimensions do not chain")
    comp = d_n * d_np1
    for j in range(comp.cols):
        if any(comp.entry(i, j) != 0 for i in range(comp.rows)):
            raise BoundaryCompositionError(j)

    s = _smith(d_n)
    diag = s.d.diagonal_entries()
    rank = sum(1 for d in diag if d != 0)
    k = d_n.cols - rank  # kernel rank; kernel basis = last k columns of V
    # Express each column of d_np1 in the kernel basis: the last k rows
    # of V^{-1} applied to the column.
    rel_rows = []
    for j in range(d_np1.cols):
        col = d_np1.column(j)
        y = [
            sum(s.v_inv.entry(i, c) * col[c] for c in range(d_n.cols))
            for i in range(d_n.cols)
        ]
        if any(y[i] != 0 for i in range(rank)):
            raise AssertionError("column not in kernel despite zero composition")
        rel_rows.append(y[rank:])
    rel = IntMatrix.from_rows(rel_rows, k)
    return quotient_group(rel)


def image_solve(a: IntMatrix, b):
    """Integer x with A x = b, or None when b is not in the integer
    column span of A."""
    b = tuple(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    s = _smith(a)
    c = s.u.apply(b)
    diag = s.d.diagonal_entries()
    y = [0] * a.cols
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else 0
        if d != 0:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return s.v.apply(y)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between groups in invariant-factor form, as an
    integer matrix on generators (target rows, source columns)."""

    source: FinAbelianGroup
    target: FinAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        if len(rows) != self.target.ngens or any(len(r) != self.source.ngens for r in rows):
            raise ValueError("matrix shape does not match generator counts")
        tk = len(self.target.invariant_factors)
        canon = []
        for i, r in enumerate(rows):
            if i < tk:
                canon.append(tuple(e % self.target.invariant_factors[i] for e in r))
            else:
                canon.append(r)
        canon = tuple(canon)
        sk = len(self.source.invariant_factors)
        for j in range(sk):
            d_src = self.source.invariant_factors[j]
            for i in range(self.target.ngens):
                e = canon[i][j]
                if i < tk:
                    if (d_src * e) % self.target.invariant_factors[i] != 0:
                        raise ValueError(f"entry ({i},{j}) does not respect generator order")
                elif e != 0:
                    raise ValueError(f"torsion generator {j} cannot map to free part")
        object.__setattr__(self, "matrix", canon)

    @classmethod
    def identity(cls, group: FinAbelianGroup):
        n = group.ngens
        return cls(group, group, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __call__(self, elem: GroupElement) -> GroupElement:
        if len(elem.coords) != self.source.ngens:
            raise ValueError("element does not belong to the source group")
        return self.target.element(
            sum(row[j] * elem.coords[j] for j in range(self.source.ngens)) for row in self.matrix
        )

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError("homomorphisms do not chain")
        rows = []
        for i in range(self.target.ngens):
            rows.append(
                tuple(
                    sum(self.matrix[i][k] * other.matrix[k][j] for k in range(self.source.ngens))
                    for j in range(other.source.ngens)
                )
            )
        return GroupHom(other.source, self.target, tuple(rows))

    def is_surjective(self) -> bool:
        """Image together with the target relations must span Z^ngens."""
        rows = [list(col) for col in zip(*self.matrix)] if self.matrix else []
        tk = len(self.target.invariant_factors)
        for i in range(tk):
            row = [0] * self.target.ngens
            row[i] = self.target.invariant_factors[i]
            rows.append(row)
        rel = IntMatrix.from_rows(rows, self.target.ngens)
        return quotient_group(rel).is_trivial()


def group_from_addition(elements, add, zero):
    """Recover invariant factors from an explicit abelian addition table.

    elements: finite iterable (kept in its given order); add: binary
    operation; zero: identity element.  Returns (group, to_coords,
    from_coords) with dictionaries in both directions.

    The group is presented by relative orders (a polycyclic
    presentation).  Generators s_1, ..., s_k are picked greedily in
    element order: an element is picked when it is not in the span of
    the earlier picks.  The relative order m_j of s_j is the least m
    with m.s_j in the span of s_1, ..., s_(j-1), and c_j is the exponent
    vector of that landing point.  The new span is every x + t.s_j with
    x in the old span and 0 <= t < m_j, and each element gets the
    exponents of that normal form.  These sums are distinct, since two
    equal ones would put a smaller multiple of s_j in the old span, so
    |G| = prod m_j; and each m_j >= 2, so k <= log2 |G|.  The relations
    m_j.e_j = sum_i c_ji.e_i form a triangular k x k matrix whose
    quotient P has order prod m_j = |G|.  They hold in G, so e_j -> s_j
    induces a map from P onto G, which is an isomorphism by counting.
    to_coords[x] is the class of x's exponents, which that map sends to
    x.

    Raises ValueError if the table is not an abelian group table with
    this zero: every pick must land in the span within |G| steps, the
    quotient must have order |G|, to_coords must be a bijection, and
    every table entry must satisfy
    to_coords[a] + to_coords[b] = to_coords[add(a, b)].
    """
    elems = list(elements)
    members = set(elems)
    n = len(elems)
    if zero not in members:
        raise ValueError("zero is not among the elements")
    table = {}
    for a in elems:
        for b in elems:
            c = table[a, b] = add(a, b)
            if c not in members:
                raise ValueError("addition leaves the element set")
    exponents = {zero: ()}  # element -> exponents over the picks so far
    rows = []
    for s in elems:
        if s in exponents:
            continue
        y, m = s, 1
        while y not in exponents:
            if m == n:
                raise ValueError("addition table is not a finite abelian group table")
            y, m = table[y, s], m + 1
        rows.append([-c for c in exponents[y]] + [m])
        span = {}
        for x, v in exponents.items():
            for t in range(m):
                span.setdefault(x, v + (t,))
                x = table[x, s]
        exponents = span
    k = len(rows)
    coker = cokernel(IntMatrix.from_rows([row + [0] * (k - len(row)) for row in rows], k))
    group = coker.group
    if group.order() != n:
        raise ValueError("addition table is not a finite abelian group table")
    to_coords = {x: coker.project(v) for x, v in exponents.items()}
    from_coords = {g: e for e, g in to_coords.items()}
    if len(from_coords) != n:
        raise ValueError("presentation did not separate the elements")
    coords = {x: g.coords for x, g in to_coords.items()}
    factors = group.invariant_factors
    for (a, b), c in table.items():
        if tuple((x + y) % d for x, y, d in zip(coords[a], coords[b], factors)) != coords[c]:
            raise ValueError("addition table is not a finite abelian group table")
    return group, to_coords, from_coords
