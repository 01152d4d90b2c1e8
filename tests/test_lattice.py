
"""Tests of sl2flip.lattice, and the Smith normal form oracle.

The package computes no matrix normal form: its cokernels are rank-2
closed forms (sl2core._column_quotient, git.stabilizer_of_support).  Smith
normal form, with the cokernel and integer kernel read off its unimodular
transforms, lives here as their brute-force oracle; test_toricgeom,
test_git and test_sl2core import it from this file.  The record decorator
is checked against dataclasses.dataclass(frozen=True), on a twin of every
record class of the package.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2flip import git, lattice, params, semigroup, sl2core, toricgeom
from sl2flip.lattice import (
    FinAbGroup,
    Vec,
    _vec,
    det2,
    iter_bounded_diophantine,
    primitive,
    xgcd,
)


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

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)


@dataclass(frozen=True)
class SmithDecomposition:
    """left * a * right is the diagonal matrix with entries diag, for
    unimodular transforms left and right.

    diag holds min(rows, cols) nonnegative entries, each dividing the next,
    zeros trailing.
    """

    diag: Vec
    left: IntMatrix
    right: IntMatrix


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


def group_order(g: FinAbGroup) -> int | None:
    """Order of g, or None when it is infinite."""
    return None if g.free_rank else math.prod(g.torsion)


def element_order(g: FinAbGroup, coords: Sequence[int]) -> int | None:
    """Order of an element of g, or None when it has infinite order."""
    coords = g.reduce(coords)
    if any(coords[: g.free_rank]):
        return None
    n = 1
    for c, d in zip(coords[g.free_rank:], g.torsion):
        n = math.lcm(n, d // math.gcd(d, c))
    return n


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
        assert group_order(g) is None

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
        assert group_order(g) == 6
        orders = sorted(element_order(g, g.element(j)) for j in range(2))
        assert orders == [2, 3]

    def test_trivial(self):
        g = cokernel(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert g.is_trivial()
        assert g.structure() == "0"

    def test_element_order(self):
        g = FinAbGroup(1, (4,))
        assert element_order(g, (0, 1)) == 4
        assert element_order(g, (0, 2)) == 2
        assert element_order(g, (0, 0)) == 1
        assert element_order(g, (1, 0)) is None


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


RECORDS = [
    cls
    for mod in (lattice, params, git, semigroup, toricgeom, sl2core)
    for cls in vars(mod).values()
    if isinstance(cls, type)
    and cls.__module__ == mod.__name__
    and "__annotations__" in vars(cls)
]
RECORD_METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def dataclass_twin(cls):
    """The class body of cls made a frozen dataclass: the reference that
    lattice.record must agree with."""
    skip = (*RECORD_METHODS, "__dict__", "__weakref__")
    body = {k: v for k, v in vars(cls).items() if k not in skip}
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, (), {**body, "__qualname__": cls.__qualname__})
    )


def field_names(cls):
    return tuple(cls.__annotations__)


def record_samples():
    """Every record reachable from the results of three instances, by class."""
    found = {}

    def walk(obj):
        if type(obj) in RECORDS:
            found.setdefault(type(obj), []).append(obj)
            children = [getattr(obj, n) for n in field_names(type(obj))]
        elif isinstance(obj, (tuple, frozenset)):
            children = obj
        elif isinstance(obj, dict):
            children = [*obj, *obj.values()]
        else:
            return
        for child in children:
            walk(child)

    for p, q, m in [(2, 5, 6), (1, 3, 1), (3, 7, 4)]:
        inst = sl2core.derive_params(p, q, m)
        walk(inst)
        walk(sl2core.flip_report(inst))
        walk(sl2core.cox_presentation(inst))
        walk(sl2core.class_group(inst))
        walk(sl2core.colored_cones(inst))
        walk(sl2core.toric_degeneration(inst))
        walk(tuple(sl2core.slice_semigroup(inst, w) for w in ("plus", "minus", "prime", "tilde")))
        walk(tuple(sl2core.slice_basis(inst, w) for w in ("plus", "minus", "prime")))
        walk(toricgeom.flip_subdivisions(toricgeom.sigma_of(inst.p, inst.q, inst.a)))
    return found


SAMPLES = record_samples()


def raised(fn, *args, **kwargs):
    """(exception type or None, message or result) of fn(*args, **kwargs)."""
    try:
        return None, fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


class TestRecord:
    def test_every_record_class_is_sampled(self):
        assert len(RECORDS) == 17
        assert set(SAMPLES) == set(RECORDS)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_agrees_with_a_frozen_dataclass(self, cls):
        twin = dataclass_twin(cls)
        names = field_names(cls)
        values = [tuple(getattr(s, n) for n in names) for s in SAMPLES[cls]]
        for sample, v in zip(SAMPLES[cls], values):
            ours, ref = cls(*v), twin(*v)
            assert repr(ours) == repr(ref) == repr(sample)
            assert ours == sample and not ours != sample
            assert cls(**dict(zip(names, v))) == ours
            assert raised(hash, ours) == raised(hash, ref)  # a value, or unhashable
            for attempt in (lambda o: setattr(o, names[0], v[0]),
                            lambda o: delattr(o, names[0]),
                            lambda o: setattr(o, "extra", 1)):
                kind, message = raised(attempt, ours)
                ref_kind, ref_message = raised(attempt, ref)  # FrozenInstanceError
                assert kind is AttributeError and issubclass(ref_kind, AttributeError)
                assert message == ref_message
        for u, v in zip(values, values[1:]):
            assert (cls(*u) == cls(*v)) == (twin(*u) == twin(*v))
            assert (cls(*u) != cls(*v)) == (twin(*u) != twin(*v))

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_defaults_and_missing_fields(self, cls):
        twin = dataclass_twin(cls)
        names = field_names(cls)
        sample = SAMPLES[cls][0]
        v = tuple(getattr(sample, n) for n in names if n not in vars(cls))
        assert repr(cls(*v)) == repr(twin(*v))
        assert raised(cls, *v[:-1])[0] is raised(twin, *v[:-1])[0] is TypeError
        every = tuple(getattr(sample, n) for n in names)
        assert raised(cls, *every, None)[0] is raised(twin, *every, None)[0] is TypeError
        assert raised(cls, *v, bogus=1)[0] is raised(twin, *v, bogus=1)[0] is TypeError

    @pytest.mark.parametrize("cls, args", [
        pytest.param(toricgeom.Cone, (((2, 0, 0), (0, 1, 0)),), id="Cone-not-primitive"),
        pytest.param(toricgeom.Cone, (((1, 0, 0), (-1, 0, 0)),), id="Cone-proportional"),
        pytest.param(toricgeom.CyclicSingularity, (4, 2), id="CyclicSingularity-not-unit"),
        pytest.param(toricgeom.Fan, ((),), id="Fan-empty"),
        pytest.param(git.DiagonalAction, ((1, 2), 3, (0, 3)), id="DiagonalAction-unreduced"),
        pytest.param(semigroup.AffineSemigroup, (2, ((1, 0, 0),)), id="AffineSemigroup-length"),
        pytest.param(params.SL2Params, (2, 4, 1), id="SL2Params-unreduced"),
    ])
    def test_post_init_still_validates(self, cls, args):
        kind, message = raised(cls, *args)
        assert kind is ValueError
        assert raised(dataclass_twin(cls), *args) == (kind, message)

    def test_equal_fields_of_different_classes_are_unequal(self):
        assert git.GroupCharacter(1, 0) != toricgeom.CyclicSingularity(1, 0)
        assert git.GroupCharacter(1, 0) != (1, 0)
        cone = toricgeom.Cone(((1, 0, 0), (0, 1, 0)))
        assert cone != toricgeom.Fan((cone,))
        assert len({git.GroupCharacter(1, 0), git.GroupCharacter(1, 0)}) == 1
