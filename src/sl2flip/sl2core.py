"""End-to-end invariants of the normal affine SL(2)-threefolds classified
by a height h = p/q and a degree m.

Everything downstream of the classification datum lives here, built from
the validated SL2Params: the Cox presentation with its diagonal action and
named characters, the slice semigroups, orbit structure, divisor class
group, canonical class, the flip with its intersection numbers, the
cyclic quotient types of the three slices, colored cones, and the toric
degeneration.  The modules lattice/semigroup/toricgeom/git compute on the
shapes this one builds: an action on the five Cox coordinates, rank-2
slices with the one congruence i == j mod m, and the rank-3 degeneration
semigroup, whose congruence ((1, -1, 0), m) leaves its third coordinate
free.  This module builds the instance's objects, wires them together and
cross-checks the answers against each other.

Each cross-check is written once, next to the value it checks, and raises
CrossCheckError, so it runs in every mode, python -O included, and the
CLI exits 4 on it in every command.  Five of verify's rows are these
checks (class-group, canonical, slices, cones and degeneration pass when
the library call returns); the other rows are oracles in verify.

Every invariant derived from an instance is computed once per SL2Params
object and kept on that object: the action and characters, the three
slice semigroups and the rank-3 degeneration semigroup, the Hilbert bases
asked for through slice_basis, the class group, canonical class,
intersection numbers, slice types, colored cones, the degeneration,
and the S+ basis over which it checked the fibers, which
degeneration_fibers lists.  The values live and die with the object, and
equal objects share nothing, so build a fresh SL2Params per computation.
A call that raises keeps nothing and raises again the next time.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType

from .git import (
    DiagonalAction,
    GroupCharacter,
    SemistableReport,
    monomial_character,
    semistable_locus,
)
from .lattice import CrossCheckError, FinAbGroup, Vec, _require, det2, primitive, record
from .params import SL2Params, derive_params, iter_instances
from .semigroup import (
    AffineSemigroup,
    HilbertBasis,
    Run,
    hilbert_basis,
    quotient_type,
)
from .toricgeom import (
    Cone,
    CyclicSingularity,
    _relation,
    flip_K_degrees,
    gaifullin_criterion,
    sigma0_of,
    sigma_of,
)

__all__ = [
    "CanonicalClass",
    "ColoredConeData",
    "CoxPresentation",
    "CrossCheckError",
    "DivisorClassGroup",
    "FlipReport",
    "SL2Params",
    "ToricDegeneration",
    "VarietySummary",
    "action",
    "canonical_class",
    "characters",
    "class_group",
    "colored_cones",
    "cox_presentation",
    "degeneration_fibers",
    "derive_params",
    "embedding_data",
    "flip_report",
    "intersection_numbers",
    "is_smooth",
    "is_toric",
    "iter_instances",
    "make_Mtilde",
    "orbit_structure",
    "slice_basis",
    "slice_semigroup",
    "slice_surfaces",
    "toric_degeneration",
]


def _once(fn):
    """Compute fn(params, *args) once per SL2Params object and keep the
    value in that object's __dict__, which the record's fields, equality
    and hash ignore.  An exception is not kept."""
    name = fn.__name__

    @functools.wraps(fn)
    def once(params: SL2Params, *args):
        memo = params.__dict__.setdefault("_memo", {})
        key = (name, *args)
        if key not in memo:
            memo[key] = fn(params, *args)
        return memo[key]

    return once


@_once
def action(params: SL2Params) -> DiagonalAction:
    """The diagonal action of the Cox presentation: diag(t^k, t^-p, t^-p,
    t^q, t^q) times diag(1, z^-1, z^-1, z, z) of C* x mu_a on (Y0, X1, X2,
    X3, X4)."""
    p, q, k, a = params.p, params.q, params.k, params.a
    return DiagonalAction(
        torus_weights=(k, -p, -p, q, q),
        finite_order=a,
        finite_weights=(0, (-1) % a, (-1) % a, 1 % a, 1 % a),
    )


@_once
def characters(params: SL2Params) -> dict[str, GroupCharacter]:
    """The six named characters of that action: the flip pair plus/minus,
    the trivial one, and those cut out by Y0 (D), X2 (S_plus) and X3
    (S_minus)."""
    p, q, k, a = params.p, params.q, params.k, params.a
    return {
        "plus": GroupCharacter(-k + p - q, 0),
        "minus": GroupCharacter(k + q - p, 0),
        "trivial": GroupCharacter(0, 0),
        "D": GroupCharacter(k, 0),
        "S_plus": GroupCharacter(-p, (-1) % a),
        "S_minus": GroupCharacter(q, 1 % a),
    }


@_once
def slice_semigroup(params: SL2Params, which: str) -> AffineSemigroup:
    """The exponent semigroup of a slice, points (i, j) with i == j mod m:

      plus   p*i - q*j >= 0 in the first quadrant, i, j >= 0 being the
             unit covectors (1, 0), (0, 1) (S+); the weight monoid of the
             open orbit closure in the plus chart
      minus  the same covector with j free to go negative, i >= 0 only
             (S-); the minus chart
      prime  p*j - q*i >= 0 together with j >= i (S'); the fixed-point
             chart, not pointed when p == q == 1
      tilde  the rank-3 degeneration semigroup fibered over S+
             (make_Mtilde)
    """
    if which == "tilde":
        return make_Mtilde(params)
    p, q = params.p, params.q
    inequalities = {
        "plus": ((p, -q), (1, 0), (0, 1)),
        "minus": ((p, -q), (1, 0)),
        # at p == q == 1 the two covectors coincide and the region is a
        # half-plane, so a Hilbert basis gets cone_rays' not-pointed error
        "prime": ((-q, p), (-1, 1)),
    }[which]
    return AffineSemigroup(2, inequalities, (((1, -1), params.m),))


def make_Mtilde(params: SL2Params, transpose_ij: bool = False) -> AffineSemigroup:
    """Rank-3 semigroup of the toric degeneration.

    Points are (i, j, l) with (i, j) a member of S+ and 0 <= l <= i + j.
    transpose_ij swaps the roles of i and j (the same semigroup in
    transposed coordinates; both sign conventions are in circulation and
    the fiber structure is identical either way).
    """
    p, q = params.p, params.q
    if transpose_ij:
        ineqs = ((1, 1, -1), (-q, p, 0), (1, 0, 0))
    else:
        ineqs = ((1, 1, -1), (p, -q, 0), (0, 1, 0))
    return AffineSemigroup(3, (*ineqs, (0, 0, 1)), (((1, -1, 0), params.m),))


@_once
def slice_basis(params: SL2Params, which: str) -> HilbertBasis:
    """Hilbert basis of slice_semigroup(params, which); raises ValueError
    when its cone is not pointed."""
    return hilbert_basis(slice_semigroup(params, which))


def is_toric(params: SL2Params) -> bool:
    return params.b == 1


def is_smooth(params: SL2Params) -> bool:
    return params.b == 0


@record
class CoxPresentation:
    """Total coordinate ring data: one equation in five variables plus the
    diagonal action whose quotient recovers the variety."""

    relation_degree: int
    action: DiagonalAction
    ambient_dim = 5

    @property
    def equation(self) -> str:
        lhs = "1" if self.relation_degree == 0 else f"Y0^{self.relation_degree}"
        return f"{lhs} = X1*X4 - X2*X3"


def cox_presentation(params: SL2Params) -> CoxPresentation:
    return CoxPresentation(params.b, action(params))


def orbit_structure(params: SL2Params) -> tuple[str, ...]:
    """Orbit labels by stabilizer.  Height 1 has an open orbit and a closed
    2-dimensional one; below height 1 a fixed point O joins instead."""
    open_orbit = f"SL(2)/C_{params.m}"
    if params.b == 0:
        return (open_orbit, "SL(2)/T")
    return (open_orbit, f"SL(2)/U_{params.a * (params.p + params.q)}", "O")


@record
class DivisorClassGroup:
    """Class group in normal form with two generator systems.

    Cl is Z^2 on two generators modulo one relation, read off the exact
    sequence M -> Z^(divisors) -> Cl -> 0 (Cox-Little-Schenck 5.1): group
    presents ([D], [S+]) with ap[D] + m[S+] = 0, alt presents ([D], [S-])
    with -aq[D] + m[S-] = 0.  Z^2 modulo one column (x, y) is
    Z x Z/gcd(x, y), and gcd(ap, m) = gcd(aq, m) = a since p and q are
    prime to k, so both must normalize to Z x Z/a.  The coordinates of the
    generators come from the row operations of _column_quotient's Euclid:
    the second row gives the free coordinate, the first, mod a, the
    torsion one.
    """

    group: FinAbGroup
    alt: FinAbGroup

    def class_of_D(self) -> Vec:
        return self.group.element(0)

    def class_of_S_plus(self) -> Vec:
        return self.group.element(1)


def _column_quotient(x: int, y: int) -> FinAbGroup:
    """Z^2 modulo the span of the nonzero column (x, y), with the images
    of the two standard basis vectors.

    A two-row Euclid with Smith normal form's pivot rule (Cohen, A Course
    in Computational Algebraic Number Theory, 2.4): pivot on the entry of
    least absolute value, ties to row 0, negate a negative pivot, reduce
    the other row by floor division.  Each row carries its row of the left
    transform, so the images are those Smith normal form gives.
    """
    top, bottom = [x, 1, 0], [y, 0, 1]
    if top[0] == 0 or 0 < abs(bottom[0]) < abs(top[0]):
        top, bottom = bottom, top
    if top[0] < 0:
        top = [-v for v in top]
    while bottom[0]:
        c = bottom[0] // top[0]
        bottom = [u - c * v for u, v in zip(bottom, top)]
        if bottom[0]:
            top, bottom = bottom, top
    g = top[0]
    if g == 1:
        return FinAbGroup(1, (), ((bottom[1],), (bottom[2],)))
    return FinAbGroup(1, (g,), ((bottom[1], top[1] % g), (bottom[2], top[2] % g)))


@_once
def class_group(params: SL2Params) -> DivisorClassGroup:
    p, q, m, a = params.p, params.q, params.m, params.a
    group = _column_quotient(a * p, m)
    alt = _column_quotient(-a * q, m)
    expected = (1, () if a == 1 else (a,))
    for g in (group, alt):
        _require((g.free_rank, g.torsion) == expected, "class group is not Z x Z/a", g)
    chars = characters(params)
    act = action(params)
    # the generators are cut out by coordinates, so their classes must match
    # the characters of those coordinates
    for idx, name in ((0, "D"), (2, "S_plus"), (4, "S_minus")):
        exps = (0,) * idx + (1,) + (0,) * (4 - idx)
        _require(monomial_character(act, exps) == chars[name], "generator character", name)
    # the relations must already hold at the character level
    for coeff, name in ((a * p, "S_plus"), (-a * q, "S_minus")):
        total_t = coeff * chars["D"].torus_part + m * chars[name].torus_part
        total_f = coeff * chars["D"].finite_part + m * chars[name].finite_part
        ok = total_t == 0 and total_f % act.finite_order == 0
        _require(ok, "relation fails on characters", name, total_t, total_f)
    return DivisorClassGroup(group, alt)


@record
class CanonicalClass:
    """K = coefficient * [D], with the character it pulls back to on the
    Cox ring and its two adjunction factors."""

    coefficient: int
    coords: Vec
    chi: GroupCharacter
    chi_prime: GroupCharacter
    chi_plus: GroupCharacter


@_once
def canonical_class(params: SL2Params) -> CanonicalClass:
    """K by adjunction on the Cox hypersurface: chi = -(sum of the five
    coordinate characters) is K of the ambient C^5, chi' is the one
    character of the three terms of Y0^b = X1*X4 - X2*X3, and
    chi+ = chi + chi' must be -(1+b) times the character of D."""
    act = action(params)
    a = act.finite_order
    cl = class_group(params)
    coeff = -(1 + params.b)
    coords = cl.group.reduce(tuple(coeff * c for c in cl.class_of_D()))
    total = monomial_character(act, (1,) * 5)
    chi = GroupCharacter(-total.torus_part, -total.finite_part % a)
    terms = [
        monomial_character(act, exps)
        for exps in ((params.b, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 1, 1, 0))
    ]
    _require(len(set(terms)) == 1, "relation is not homogeneous", terms)
    chi_prime = terms[0]
    chi_plus = GroupCharacter(
        chi.torus_part + chi_prime.torus_part,
        (chi.finite_part + chi_prime.finite_part) % a,
    )
    d = characters(params)["D"]
    want = GroupCharacter(coeff * d.torus_part, coeff * d.finite_part % a)
    _require(chi_plus == want, "chi+ is not K", chi_plus, want)
    return CanonicalClass(coeff, coords, chi, chi_prime, chi_plus)


@_once
def intersection_numbers(params: SL2Params) -> tuple[Fraction, Fraction]:
    """(K . C-, K . C+) on the two sides of the flip.

    Closed forms -(1+b)k/(aq^2) and (1+b)k/(ap^2), checked to have the
    signs of a flip.  At b = 1 the flip is the toric flip of sigma, and
    both values must equal K.C / mult(wall) on its two wall curves, which
    flip_K_degrees reads off sigma's rays by the wall relation.
    """
    p, q, k, a, b = params.p, params.q, params.k, params.a, params.b
    if b == 0:
        raise ValueError("no flip for height 1")
    minus = Fraction(-(1 + b) * k, a * q * q)
    plus = Fraction((1 + b) * k, a * p * p)
    _require(minus < 0 < plus, "K-degree signs", minus, plus)
    if b == 1:
        got = flip_K_degrees(sigma_of(p, q, a))
        _require(got == (plus, minus), "wall-curve K-degree", got, (plus, minus))
    return minus, plus


@_once
def slice_surfaces(
    params: SL2Params,
) -> tuple[CyclicSingularity | None, CyclicSingularity | None, CyclicSingularity | None]:
    """The cyclic quotient types at the fixed points of the slices S+, S-
    and S', None for a slice whose cone is not pointed, so that it has no
    fixed point.  Each type is quotient_type of the slice; the Hilbert
    basis is built only on request, by slice_basis."""
    p, q, a, b = params.p, params.q, params.a, params.b

    def build(name: str, which: str, expected_order: int | None):
        semi = slice_semigroup(params, which)
        try:
            sing = CyclicSingularity(*quotient_type(semi))
        except ValueError:
            _require(expected_order is None, "slice is not pointed", name, expected_order)
            return None
        ok = expected_order is None or sing.order == expected_order
        _require(ok, "slice order", name, sing, expected_order)
        return sing

    s_plus = build("S+", "plus", a * p)
    s_minus = build("S-", "minus", a * q)
    s_prime = build("S'", "prime", b if b >= 1 else None)
    return s_plus, s_minus, s_prime


@record
class ColoredConeData:
    """Spherical description in the lattice {(i,j) : index | i - j}, with
    the two colors as the dual basis vectors."""

    lattice_index: int
    rho: Vec
    rho_prime: Vec
    cones: dict[str, tuple[tuple[Vec, Vec], frozenset[str]]]
    rho_plus = (1, 0)
    rho_minus = (0, 1)

    def color_vector(self, name: str) -> Vec:
        return {"rho+": self.rho_plus, "rho-": self.rho_minus}[name]


def _in_cone(gens: tuple[Vec, Vec], x: Vec) -> bool:
    """Whether x is in the cone of independent u, v: by Cramer's rule, both
    numerators of x = (det2(x, v) u + det2(u, x) v) / d have d's sign or vanish."""
    u, v = gens
    d = det2(u, v)
    return det2(x, v) * d >= 0 and det2(u, x) * d >= 0


@_once
def colored_cones(params: SL2Params) -> ColoredConeData:
    """Colored cones of the four varieties in the flip diagram.

    rho = p rho+ - q rho- is the open-orbit valuation ray, rho' = rho+ -
    rho- the exceptional one; the valuation cone is {x + y <= 0}.
    """
    p, q = params.p, params.q
    if params.b == 0:
        raise ValueError("colored cones are reported only below height 1")
    rho = (p, -q)
    rho_prime = (1, -1)
    data = ColoredConeData(
        lattice_index=params.m,
        rho=rho,
        rho_prime=rho_prime,
        cones={
            "E": ((rho, (0, 1)), frozenset({"rho+", "rho-"})),
            "E-": ((rho, (1, 0)), frozenset({"rho+"})),
            "E+": ((rho, (0, 1)), frozenset({"rho-"})),
            "E'": ((rho, rho_prime), frozenset()),
        },
    )
    _require(rho[0] + rho[1] <= 0, "rho is off the valuation cone", rho)
    for name, (gens, colors) in data.cones.items():
        _require(det2(gens[0], gens[1]) != 0, "cone is not strictly convex", name)
        for color in colors:
            _require(_in_cone(gens, data.color_vector(color)), "color off cone", name, color)
    # the exceptional chart sees no color at all
    exceptional = data.cones["E'"][0]
    for color in ("rho+", "rho-"):
        _require(not _in_cone(exceptional, data.color_vector(color)), "color in E'")
    # each contraction to E picks up the color opposite the one it kept
    _require(data.cones["E"][1] == data.cones["E-"][1] | {"rho-"}, "colors of E- -> E")
    _require(data.cones["E"][1] == data.cones["E+"][1] | {"rho+"}, "colors of E+ -> E")
    return data


@record
class ToricDegeneration:
    """Flat degeneration data: sigma0, the dual of the cone of the rank-3
    semigroup slice_semigroup(params, "tilde"), which is never
    quasihomogeneous.  degeneration_fibers lists the fiber counts over the
    S+ basis, which match the module dimensions upstairs."""

    sigma0: Cone
    relation_coefficients: tuple[int, int, int, int]
    quasihomogeneous = False


def _check_fibers(tilde: AffineSemigroup, runs: tuple[Run, ...]) -> None:
    """Require i + j + 1 points (i, j, l) of the rank-3 semigroup tilde over
    each point of the runs, in O(#runs).  One covector bounds l from below
    (c2 = 1) and one from above (c2 = -1), so a fiber has
    (lower + upper)(i, j) + 1 points; eliminating l (Fourier-Motzkin)
    leaves the base, cut by the l-free covectors and lower + upper.  A run
    whose ends meet them lies in the base, a cone being convex; a
    congruence must leave l free and meet each run's start and step."""
    covectors = tilde.inequalities
    bounds = sorted((c2, c0, c1) for c0, c1, c2 in covectors if c2)
    _require([c2 for c2, _, _ in bounds] == [-1, 1], "l is not bounded once each way", bounds)
    (_, a0, a1), (_, b0, b1) = bounds
    _require((a0 + b0, a1 + b1) == (1, 1), "fiber count is not i + j + 1", bounds)
    _require(all(g[2] % n == 0 for g, n in tilde.congruences), "a congruence involves l")
    base = [(c0, c1) for c0, c1, c2 in covectors if not c2] + [(1, 1)]
    for (x, y), (dx, dy), count in runs:
        ends = ((x, y), (x + (count - 1) * dx, y + (count - 1) * dy))
        ok = all(c0 * i + c1 * j >= 0 for c0, c1 in base for i, j in ends)
        for (g0, g1, _), n in tilde.congruences:
            ok = ok and (g0 * x + g1 * y) % n == (g0 * dx + g1 * dy) % n == 0
        _require(ok, "run leaves the base of the degeneration semigroup", (x, y), (dx, dy), count)


@_once
def _checked_fiber_basis(params: SL2Params) -> HilbertBasis:
    """The S+ basis, once _check_fibers has shown g[0] + g[1] + 1 points of
    the degeneration semigroup over each generator g, the dimension of the
    module V_{i+j} that g spans.  No generator is expanded."""
    basis = slice_basis(params, "plus")
    _check_fibers(slice_semigroup(params, "tilde"), basis.runs)
    return basis


def degeneration_fibers(params: SL2Params) -> tuple[tuple[Vec, int], ...]:
    """The checked count of the rank-3 semigroup's fiber over each S+
    generator g, g[0] + g[1] + 1, in the generators' lex order.  Defined at
    height 1 as well."""
    gens = _checked_fiber_basis(params).generators
    # tuple() of a list: tuple() of an iterator grows the tuple by
    # reallocation, which fragments the heap of a long sweep
    return tuple([(g, g[0] + g[1] + 1) for g in gens])


@_once
def toric_degeneration(params: SL2Params) -> ToricDegeneration:
    p, q = params.p, params.q
    if params.b == 0:
        raise ValueError("no degeneration data at height 1")
    tilde = slice_semigroup(params, "tilde")
    sigma0 = sigma0_of(p, q)
    # sigma0 is the dual of tilde's cone: its rays are tilde's covectors
    dual = {primitive(c) for c in tilde.inequalities}
    _require(set(sigma0.rays) == dual, "sigma0 is not the dual of cone(M~)", sigma0.rays)
    coeffs = tuple(abs(n) for n in _relation(sigma0.rays))
    _require(not gaifullin_criterion(sigma0), "sigma0 is quasihomogeneous")
    _checked_fiber_basis(params)
    return ToricDegeneration(sigma0, coeffs)


def embedding_data(params: SL2Params) -> tuple[tuple[Vec, str, int], ...]:
    """Hilbert basis of the upper semigroup, each generator labeled by the
    irreducible module V_{i+j} it spans (dimension i + j + 1)."""
    gens = slice_basis(params, "plus").generators
    # tuple() of a list, as in degeneration_fibers
    return tuple([(g, f"V_{g[0] + g[1]}", g[0] + g[1] + 1) for g in gens])


@record
class VarietySummary:
    orbits: tuple[str, ...]
    smooth: bool
    slice_singularity: CyclicSingularity | None
    notes: tuple[str, ...] = ()


CONVENTION_NOTE = (
    "sign convention: the plus side is the small modification whose wall "
    "curve has positive K-degree, matching E+ = Proj of the nK section "
    "ring; an alternative labeling swaps the two sides, so the K-sign and "
    "the Proj description are authoritative here (ap sits on the plus "
    "wall, aq on the minus wall)"
)


@record
class FlipReport:
    """Everything about the flip diagram E- -> E <- E+ plus the one-step
    resolution E'."""

    canonical: CanonicalClass
    k_degrees: tuple[Fraction, Fraction]
    semistable: dict[str, SemistableReport]
    varieties: dict[str, VarietySummary]
    proj_descriptions = MappingProxyType({
        "E+": "Proj of the section ring of nK, n >= 0",
        "E-": "Proj of the section ring of -nK, n >= 0",
    })
    convention_note = CONVENTION_NOTE


def flip_report(params: SL2Params) -> FlipReport:
    m, b = params.m, params.b
    k_minus, k_plus = intersection_numbers(params)  # raises at height 1

    act, chars = action(params), characters(params)
    semistable = {
        name: semistable_locus(act, chars[name], b)
        for name in ("plus", "minus", "trivial")
    }

    # below height 1 slice_surfaces has checked that all three are pointed
    s_plus, s_minus, s_prime = slice_surfaces(params)

    varieties = {
        "E": VarietySummary(
            orbits=orbit_structure(params),
            smooth=False,
            slice_singularity=None,
            notes=("isolated singularity at the fixed point O",),
        ),
        "E'": VarietySummary(
            orbits=(f"SL(2)/C_{m}", "exceptional divisor D'", "curve C"),
            smooth=s_prime.is_smooth,
            slice_singularity=s_prime,
            notes=(
                "blow-up of the fixed point; smooth along C iff the slice "
                "singularity is trivial",
            ),
        ),
    }
    for name, sing, curve in (("E-", s_minus, "C-"), ("E+", s_plus, "C+")):
        varieties[name] = VarietySummary(
            orbits=(f"SL(2)/C_{m}", f"flipped curve {curve}"),
            smooth=sing.is_smooth,
            slice_singularity=sing,
            notes=(f"homogeneous slice bundle over P^1 with slice {sing}",),
        )
    return FlipReport(
        canonical=canonical_class(params),
        k_degrees=(k_minus, k_plus),
        semistable=semistable,
        varieties=varieties,
    )
