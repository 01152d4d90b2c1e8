"""Exact integer linear algebra.

Everything in scope is small (matrices at most 6x6, boxes a few dozen wide),
so the emphasis is on exactness and determinism, not speed: integer matrices
are immutable, determinants use Bareiss elimination, Smith normal form keeps
both unimodular transforms, and the bounded Diophantine solver enumerates in
lexicographic order so "first solution" means the same thing on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Vec = tuple[int, ...]


def _vec(v: Sequence[int]) -> Vec:
    return tuple(int(x) for x in v)


def det2(u: Sequence[int], v: Sequence[int]) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = math.gcd(*(abs(x) for x in v)) if v else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples.

    The column count is stored explicitly so matrices with zero rows or zero
    columns still know their shape (a 2x0 matrix of relations presents Z^2).
    """

    entries: tuple[Vec, ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        entries = tuple(_vec(r) for r in rows)
        if cols is None:
            if not entries:
                raise ValueError("need explicit cols for a matrix with no rows")
            cols = len(entries[0])
        return IntMatrix(entries, cols)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [_vec(c) for c in cols]
        if rows is None:
            if not cols:
                raise ValueError("need explicit rows for a matrix with no columns")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise ValueError("ragged columns")
        return IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(rows)), len(cols))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(self.col(j) for j in range(self.cols)), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return IntMatrix(
            tuple(
                tuple(sum(self.entries[i][t] * other.entries[t][j] for t in range(self.cols))
                      for j in range(other.cols))
                for i in range(self.rows)
            ),
            other.cols,
        )

    def apply(self, v: Sequence[int]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[t] * v[t] for t in range(self.cols)) for r in self.entries)

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for t in range(n - 1):
            if m[t][t] == 0:
                for i in range(t + 1, n):
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    # exact by the Bareiss identity
                    m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
                m[i][t] = 0
            prev = m[t][t]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """diag == left @ a @ right with unimodular transforms.

    diag holds min(rows, cols) nonnegative entries, each dividing the next,
    zeros trailing.
    """

    diag: Vec
    left: IntMatrix
    right: IntMatrix

    def matrix(self) -> IntMatrix:
        rows = self.left.rows
        cols = self.right.cols
        return IntMatrix(
            tuple(tuple(self.diag[i] if i == j and i < len(self.diag) else 0
                        for j in range(cols)) for i in range(rows)),
            cols,
        )


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize over Z, returning both unimodular transforms.

    Pivot selection is pinned down so results are reproducible: the nonzero
    entry of smallest absolute value in the working block, ties broken by
    lowest (row, col) in row-major scan order.
    """
    nrows, ncols = a.shape
    m = [list(r) for r in a.entries]
    left = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    right = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_add(i: int, src: int, c: int) -> None:
        for j in range(ncols):
            m[i][j] += c * m[src][j]
        for j in range(nrows):
            left[i][j] += c * left[src][j]

    def row_swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        left[i], left[j] = left[j], left[i]

    def row_negate(i: int) -> None:
        m[i] = [-x for x in m[i]]
        left[i] = [-x for x in left[i]]

    def col_add(j: int, src: int, c: int) -> None:
        for i in range(nrows):
            m[i][j] += c * m[i][src]
        for i in range(ncols):
            right[i][j] += c * right[i][src]

    def col_swap(j: int, l: int) -> None:
        for i in range(nrows):
            m[i][j], m[i][l] = m[i][l], m[i][j]
        for i in range(ncols):
            right[i][j], right[i][l] = right[i][l], right[i][j]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        best_abs = 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(m[i][j])
                if v != 0 and (best is None or v < best_abs):
                    best, best_abs = (i, j), v
        return best

    rank_limit = min(nrows, ncols)
    for t in range(rank_limit):
        while True:
            piv = find_pivot(t)
            if piv is None:
                break
            if piv != (t, t):
                if piv[0] != t:
                    row_swap(t, piv[0])
                if piv[1] != t:
                    col_swap(t, piv[1])
            if m[t][t] < 0:
                row_negate(t)
            # clear the pivot column, then the pivot row; nonzero remainders
            # are strictly smaller than the pivot, so this loop terminates
            clean = True
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    row_add(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t] != 0:
                        clean = False
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    col_add(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j] != 0:
                        clean = False
            if not clean:
                continue
            # divisibility: the pivot must divide the whole trailing block
            viol = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if m[i][j] % m[t][t] != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_add(t, viol, 1)
        if m[t][t] == 0:
            break  # trailing block is all zero

    diag = tuple(m[t][t] for t in range(rank_limit))
    return SmithDecomposition(
        diag,
        IntMatrix.from_rows(left, nrows) if left else IntMatrix((), nrows),
        IntMatrix.from_rows(right, ncols) if right else IntMatrix((), ncols),
    )


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group Z^free_rank x prod Z/d.

    torsion entries satisfy d >= 2 and each divides the next.  Elements are
    coordinate tuples (free coordinates first, then one per torsion factor);
    generator_images records where a caller-supplied generating set landed.
    """

    free_rank: int
    torsion: Vec
    generator_images: tuple[Vec, ...] = ()

    def reduce(self, coords: Sequence[int]) -> Vec:
        if len(coords) != self.free_rank + len(self.torsion):
            raise ValueError("coordinate length mismatch")
        free = tuple(coords[: self.free_rank])
        tor = tuple(c % d for c, d in zip(coords[self.free_rank:], self.torsion))
        return free + tor

    def element(self, generator_index: int) -> Vec:
        return self.reduce(self.generator_images[generator_index])

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        return math.prod(self.torsion)

    def element_order(self, coords: Sequence[int]) -> int | None:
        coords = self.reduce(coords)
        if any(coords[: self.free_rank]):
            return None
        n = 1
        for c, d in zip(coords[self.free_rank:], self.torsion):
            n = math.lcm(n, d // math.gcd(d, c))
        return n

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def structure(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> FinAbGroup:
    """Z^rows modulo the column span of a.

    generator_images[j] is the image of the j-th standard basis vector of
    Z^rows in the normalized coordinates of the quotient.
    """
    snf = smith_normal_form(a)
    d = snf.diag
    free_idx = [i for i in range(a.rows) if i >= len(d) or d[i] == 0]
    tor_idx = [i for i in range(len(d)) if d[i] >= 2]
    torsion = tuple(d[i] for i in tor_idx)
    images = []
    for j in range(a.rows):
        z = snf.left.col(j)  # image of e_j under the left change of basis
        images.append(tuple(z[i] for i in free_idx) + tuple(z[i] % d[i] for i in tor_idx))
    return FinAbGroup(len(free_idx), torsion, tuple(images))


def kernel_basis(a: IntMatrix) -> list[Vec]:
    """Basis of the integer kernel of a (vectors of length a.cols)."""
    snf = smith_normal_form(a)
    d = snf.diag
    return [snf.right.col(j) for j in range(a.cols) if j >= len(d) or d[j] == 0]


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1, computed via the adjugate."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    det = m.det()
    if det not in (1, -1):
        raise ValueError(f"determinant {det}, not unimodular")
    if n == 0:
        return IntMatrix((), 0)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = IntMatrix.from_rows(
                [[m.entries[r][c] for c in range(n) if c != j]
                 for r in range(n) if r != i],
                n - 1,
            )
            adj[j][i] = (-1) ** (i + j) * (minor.det() if n > 1 else 1)
    inv = IntMatrix.from_rows([[x * det for x in row] for row in adj], n)
    assert (m @ inv).entries == IntMatrix.identity(n).entries
    return inv


def lattice_basis_from_generators(gens: Sequence[Sequence[int]], dim: int) -> list[Vec]:
    """Basis of the sublattice of Z^dim generated by the given vectors."""
    gens = [_vec(g) for g in gens]
    for g in gens:
        if len(g) != dim:
            raise ValueError("generator dimension mismatch")
    if not gens:
        return []
    a = IntMatrix.from_cols(gens, dim)
    snf = smith_normal_form(a)
    linv = unimodular_inverse(snf.left)
    return [tuple(snf.diag[i] * x for x in linv.col(i))
            for i in range(len(snf.diag)) if snf.diag[i] != 0]


def iter_bounded_diophantine(
    weights: Sequence[int],
    target: int,
    box: int | Sequence[int],
    congruence: tuple[Sequence[int], int, int] | None = None,
) -> Iterator[Vec]:
    """Exponent vectors e with sum(weights[i]*e[i]) == target, lex order.

    Bounds are 0 <= e[i] <= box[i] (an int box applies to every coordinate).
    congruence, if given, is a triple (covector, residue, modulus) demanding
    sum(covector[i]*e[i]) == residue mod modulus.  Enumeration is ascending
    at every position, so the overall order is lexicographic; suffix range
    pruning keeps the search cheap for the weight vectors in scope.

    The package no longer calls it: GIT witnesses are closed forms.  It is
    the brute-force oracle of the semistability tests, and it stays here
    because the benchmark tracer (bench/tracing.py) looks it up by name.
    """
    n = len(weights)
    boxes = [box] * n if isinstance(box, int) else [int(b) for b in box]
    if len(boxes) != n or any(b < 0 for b in boxes):
        raise ValueError("bad box")
    if congruence is not None:
        cov, residue, modulus = congruence
        cov = _vec(cov)
        if len(cov) != n or modulus < 1:
            raise ValueError("bad congruence")
    # tight achievable range of sum(weights[i]*e[i]) over positions i..n-1
    sufmin = [0] * (n + 1)
    sufmax = [0] * (n + 1)
    for i in reversed(range(n)):
        w, b = weights[i], boxes[i]
        sufmin[i] = sufmin[i + 1] + min(0, w * b)
        sufmax[i] = sufmax[i + 1] + max(0, w * b)

    def rec(i: int, remaining: int, cres: int) -> Iterator[Vec]:
        if i == n:
            if remaining == 0 and (congruence is None or cres % modulus == residue % modulus):
                yield ()
            return
        w = weights[i]
        for e in range(boxes[i] + 1):
            rem = remaining - w * e
            if rem < sufmin[i + 1] or rem > sufmax[i + 1]:
                if w > 0 and rem < sufmin[i + 1]:
                    break  # rem only decreases with e
                if w < 0 and rem > sufmax[i + 1]:
                    break  # rem only increases with e
                if w == 0:
                    break  # rem is constant in e
                continue
            for tail in rec(i + 1, rem, cres + (cov[i] * e if congruence is not None else 0)):
                yield (e,) + tail

    return rec(0, target, 0)


def solve_bounded_diophantine(
    weights: Sequence[int],
    target: int,
    box: int | Sequence[int],
    congruence: tuple[Sequence[int], int, int] | None = None,
) -> list[Vec]:
    """All solutions, in lexicographic order (possibly empty)."""
    return list(iter_bounded_diophantine(weights, target, box, congruence))
