
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2flip.lattice import (
    FinAbGroup,
    IntMatrix,
    cokernel,
    det2,
    iter_bounded_diophantine,
    kernel_basis,
    primitive,
    smith_normal_form,
    xgcd,
)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert a.cols == b.rows
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, b.col(j))) for j in range(b.cols))
              for row in a.entries),
        b.cols,
    )


def apply(a: IntMatrix, v) -> tuple[int, ...]:
    assert a.cols == len(v)
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


def laplace_det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def snf_checks(a: IntMatrix):
    """Structural checks every decomposition must satisfy."""
    snf = smith_normal_form(a)
    d = snf.diag
    # reconstruction: left * a * right is the diagonal matrix of d
    diag = tuple(
        tuple(d[i] if i == j else 0 for j in range(a.cols)) for i in range(a.rows)
    )
    assert matmul(matmul(snf.left, a), snf.right).entries == diag
    # transforms unimodular
    assert abs(laplace_det(snf.left.entries)) == 1
    assert abs(laplace_det(snf.right.entries)) == 1
    # nonnegative, divisibility chain, zeros trailing
    assert all(x >= 0 for x in d)
    for i in range(len(d) - 1):
        if d[i + 1] != 0:
            assert d[i] != 0 and d[i + 1] % d[i] == 0
        if d[i] == 0:
            assert d[i + 1] == 0
    return snf


class TestSmith:
    def test_2x2_example(self):
        # gcd of entries is 2 and |det| = 8, so the diagonal must be (2, 4)
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        snf = snf_checks(a)
        assert snf.diag == (2, 4)

    def test_antidiagonal_coprime(self):
        a = IntMatrix.from_rows([[0, 5], [3, 0]])
        snf = snf_checks(a)
        assert snf.diag == (1, 15)

    def test_zero_matrix(self):
        a = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        assert smith_normal_form(a).diag == (0, 0)

    def test_no_columns(self):
        a = IntMatrix((), 0)  # 0x0
        assert smith_normal_form(a).diag == ()
        b = IntMatrix(((), ()), 0)  # 2x0
        assert smith_normal_form(b).diag == ()

    def test_rectangular(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        snf = snf_checks(a)
        assert snf.diag == (1, 3)  # gcd 1, gcd of 2x2 minors is 3

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_random_matrices(self, nr, nc, data):
        rows = [
            [data.draw(st.integers(-9, 9)) for _ in range(nc)]
            for _ in range(nr)
        ]
        snf_checks(IntMatrix.from_rows(rows, nc))


class TestCokernel:
    def test_z(self):
        g = cokernel(IntMatrix.from_cols([(1, 1)]))
        assert (g.free_rank, g.torsion) == (1, ())
        assert g.structure() == "Z"
        assert g.order() is None

    def test_z_plus_torsion(self):
        g = cokernel(IntMatrix.from_cols([(8, 4)]))
        assert (g.free_rank, g.torsion) == (1, (4,))
        assert g.structure() == "Z x Z/4"
        # the relation column must die in the quotient
        img = [8 * a + 4 * b for a, b in zip(g.generator_images[0], g.generator_images[1])]
        assert g.reduce(img) == (0, 0)

    def test_no_relations(self):
        g = cokernel(IntMatrix(((), ()), 0))
        assert (g.free_rank, g.torsion) == (2, ())
        assert g.structure() == "Z^2"

    def test_finite(self):
        g = cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert (g.free_rank, g.torsion) == (0, (6,))
        assert g.order() == 6
        orders = sorted(g.element_order(g.element(j)) for j in range(2))
        assert orders == [2, 3]

    def test_trivial(self):
        g = cokernel(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert g.is_trivial()
        assert g.structure() == "0"

    def test_element_order(self):
        g = FinAbGroup(1, (4,))
        assert g.element_order((0, 1)) == 4
        assert g.element_order((0, 2)) == 2
        assert g.element_order((0, 0)) == 1
        assert g.element_order((1, 0)) is None


class TestKernel:
    def test_plane(self):
        a = IntMatrix.from_rows([[1, 1, 1]])
        basis = kernel_basis(a)
        assert len(basis) == 2
        for v in basis:
            assert apply(a, v) == (0,)
        # basis is primitive enough to span the full kernel lattice: the two
        # vectors extend to a basis of Z^3 exactly when some 2x2 minor is +-1
        minors = [
            basis[0][i] * basis[1][j] - basis[0][j] * basis[1][i]
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        from math import gcd
        assert gcd(*(abs(x) for x in minors)) == 1

    def test_injective(self):
        assert kernel_basis(IntMatrix.from_cols([(2, 3)])) == []

    def test_kernel_of_action_character_matrix(self):
        # weights of the five Cox coordinates for (p, q, m) = (1, 2, 1),
        # plus the mu_a bookkeeping column; kernel has rank 4
        a = IntMatrix.from_rows([[1, -1, -1, 2, 2, 0], [0, -1, -1, 1, 1, 1]])
        basis = kernel_basis(a)
        assert len(basis) == 4
        for v in basis:
            assert apply(a, v) == (0, 0)


class TestDiophantine:
    def test_lex_order(self):
        sols = list(iter_bounded_diophantine((1, 2), 4, 4))
        assert sols == [(0, 2), (2, 1), (4, 0)]

    def test_weight_vector_solutions(self):
        # weights of the five Cox coordinates for (p, q, m) = (1, 3, 1)
        sols = list(iter_bounded_diophantine((1, -1, -1, 3, 3), 0, 2))
        assert (0, 0, 0, 0, 0) in sols
        assert (1, 1, 0, 0, 0) in sols
        assert all(sum(w * e for w, e in zip((1, -1, -1, 3, 3), s)) == 0 for s in sols)

    def test_negative_target(self):
        sols = list(iter_bounded_diophantine((1, -1, -1, 3, 3), -3, 4))
        assert (0, 3, 0, 0, 0) in sols

    def test_first_solution(self):
        first = next(iter_bounded_diophantine((1, -1, -1, 3, 3), 3, 3), None)
        assert first == (0, 0, 0, 0, 1)

    def test_congruence(self):
        first = next(
            iter_bounded_diophantine(
                (1, -1, -1, 3, 3), 3, 3, congruence=((0, -1, -1, 1, 1), 0, 2)
            ),
            None,
        )
        assert first == (1, 0, 1, 0, 1)

    def test_infeasible(self):
        assert list(iter_bounded_diophantine((1, -1, -1, 3, 3), -100, 3)) == []

    def test_empty_box_nonzero_target(self):
        assert list(iter_bounded_diophantine((1, 2), 1, 0)) == []

    def test_zero_target_includes_origin(self):
        assert list(iter_bounded_diophantine((1, -1), 0, 5))[0] == (0, 0)

    def test_zero_weight_coordinate(self):
        sols = list(iter_bounded_diophantine((0, 1), 1, 2))
        assert sols == [(0, 1), (1, 1), (2, 1)]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_agrees_with_product_scan(self, data):
        n = data.draw(st.integers(1, 3))
        weights = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        target = data.draw(st.integers(-6, 6))
        box = data.draw(st.integers(0, 4))
        cov = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
        mod = data.draw(st.integers(1, 4))
        res = data.draw(st.integers(0, mod - 1))
        got = list(iter_bounded_diophantine(weights, target, box, (cov, res, mod)))
        import itertools
        want = [
            e
            for e in itertools.product(range(box + 1), repeat=n)
            if sum(w * x for w, x in zip(weights, e)) == target
            and sum(c * x for c, x in zip(cov, e)) % mod == res
        ]
        assert got == want


class TestSmallHelpers:
    def test_primitive(self):
        assert primitive((4, -6)) == (2, -3)
        assert primitive((0, 5, 0)) == (0, 1, 0)
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_det2(self):
        assert det2((1, 0), (0, 1)) == 1
        assert det2((2, 1), (4, 2)) == 0

    def test_xgcd(self):
        for a, b in [(12, 18), (-5, 7), (0, 4), (3, 0), (0, 0)]:
            x, y, g = xgcd(a, b)
            assert x * a + y * b == g
            assert g >= 0

    def test_laplace_det(self):
        # the oracle itself, against hand expansions
        assert laplace_det([[2, 0, 1], [1, 3, 2], [0, 1, 4]]) == 21
        assert laplace_det([[0, 1], [1, 0]]) == -1
        assert laplace_det([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 1
        assert laplace_det([]) == 1
