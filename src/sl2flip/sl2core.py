"""End-to-end invariants of the normal affine SL(2)-threefolds classified
by a height h = p/q and a degree m.

Everything downstream of the classification datum lives here, built from
the validated SL2Params: the Cox presentation with its diagonal action and
named characters, the slice semigroups, orbit structure, divisor class
group, canonical class, the flip with its intersection numbers, slice
surfaces, colored cones, and the toric degeneration.  The modules
lattice/semigroup/toricgeom/git do the generic computing; this one builds
the instance's objects, wires them together and cross-checks the answers
against each other.

Each cross-check is written once, next to the value it checks, and raises
CrossCheckError, so it runs in every mode, python -O included, and the
CLI exits 4 on it in every command.  Five of verify's rows are these
checks (class-group, canonical, slices, cones and degeneration pass when
the library call returns); the other rows are oracles in cli.

Every invariant derived from an instance is computed once per SL2Params
object and kept on that object: the action and characters, the three
slice semigroups and the rank-3 degeneration semigroup, the Hilbert bases
asked for through slice_basis, the class group, canonical class,
intersection numbers, slice surfaces, colored cones, the degeneration and
its checked fiber counts.  The values live and die with the
object, and equal objects share nothing, so build a fresh SL2Params per
computation.  A call that raises keeps nothing and raises again the next
time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .git import (
    DiagonalAction,
    GroupCharacter,
    SemistableReport,
    monomial_character,
    semistable_locus,
)
from .lattice import CrossCheckError, FinAbGroup, Vec, _require, det2
from .params import SL2Params, derive_params, iter_instances
from .semigroup import (
    AffineSemigroup,
    HilbertBasis,
    dual_cone_rays,
    fiber_count,
    hilbert_basis,
)
from .toricgeom import (
    Cone,
    CyclicSingularity,
    classify_2d,
    common_wall,
    cone_contains,
    flip_subdivisions,
    gaifullin_criterion,
    multiplicity,
    sigma0_of,
    sigma_of,
    wall_curve_K_degree,
)

__all__ = [
    "CanonicalClass",
    "ColoredConeData",
    "CoxPresentation",
    "CrossCheckError",
    "DivisorClassGroup",
    "FlipReport",
    "SL2Params",
    "SliceSurface",
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
    value in that object's __dict__, which the dataclass's fields, equality
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

      plus   p*i - q*j >= 0 in the first quadrant (S+); the weight monoid
             of the open orbit closure in the plus chart
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
    inequalities, nonneg = {
        "plus": (((p, -q),), (0, 1)),
        "minus": (((p, -q),), (0,)),
        # at p == q == 1 the two covectors coincide and the region is a
        # half-plane, so a Hilbert basis gets cone_rays' not-pointed error
        "prime": (((-q, p), (-1, 1)), ()),
    }[which]
    return AffineSemigroup(2, inequalities, (((1, -1), params.m),), nonneg_coords=nonneg)


def make_Mtilde(params: SL2Params, transpose_ij: bool = False) -> AffineSemigroup:
    """Rank-3 semigroup of the toric degeneration.

    Points are (i, j, l) with (i, j) a member of S+ and 0 <= l <= i + j.
    transpose_ij swaps the roles of i and j (the same semigroup in
    transposed coordinates; both sign conventions are in circulation and
    the fiber structure is identical either way).
    """
    p, q = params.p, params.q
    if transpose_ij:
        ineqs = ((1, 1, -1), (-q, p, 0))
        nonneg = (0, 2)
    else:
        ineqs = ((1, 1, -1), (p, -q, 0))
        nonneg = (1, 2)
    return AffineSemigroup(3, ineqs, (((1, -1, 0), params.m),), nonneg_coords=nonneg)


@_once
def slice_basis(params: SL2Params, which: str) -> HilbertBasis:
    """Hilbert basis of slice_semigroup(params, which); raises ValueError
    when its cone is not pointed."""
    return hilbert_basis(slice_semigroup(params, which))


def is_toric(params: SL2Params) -> bool:
    return params.b == 1


def is_smooth(params: SL2Params) -> bool:
    return params.b == 0


@dataclass(frozen=True)
class CoxPresentation:
    """Total coordinate ring data: one equation in five variables plus the
    diagonal action whose quotient recovers the variety."""

    relation_degree: int
    action: DiagonalAction
    ambient_dim: int = 5

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


@dataclass(frozen=True)
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
    characters: dict[str, GroupCharacter]

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
        exps = tuple(1 if i == idx else 0 for i in range(5))
        _require(monomial_character(act, exps) == chars[name], "generator character", name)
    # the relations must already hold at the character level
    for coeff, name in ((a * p, "S_plus"), (-a * q, "S_minus")):
        total_t = coeff * chars["D"].torus_part + m * chars[name].torus_part
        total_f = coeff * chars["D"].finite_part + m * chars[name].finite_part
        ok = total_t == 0 and total_f % act.finite_order == 0
        _require(ok, "relation fails on characters", name, total_t, total_f)
    return DivisorClassGroup(group, alt, chars)


@dataclass(frozen=True)
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

    Closed forms -(1+b)k/(aq^2) and (1+b)k/(ap^2); for toric instances the
    values are recomputed from wall curves of the degeneration cone and
    must agree.
    """
    p, q, k, a, b = params.p, params.q, params.k, params.a, params.b
    if b == 0:
        raise ValueError("no flip for height 1")
    minus = Fraction(-(1 + b) * k, a * q * q)
    plus = Fraction((1 + b) * k, a * p * p)
    if b == 1:
        fan_plus, fan_minus = flip_subdivisions(sigma_of(p, q, a))
        for fan, want in ((fan_plus, plus), (fan_minus, minus)):
            wall = common_wall(fan)
            got = wall_curve_K_degree(fan, wall) / multiplicity(wall)
            _require(got == want, "wall-curve K-degree", got, want)
    return minus, plus


@dataclass(frozen=True)
class SliceSurface:
    """A two-dimensional slice: its exponent semigroup and the cyclic
    quotient type at the fixed point (None when the cone is not pointed and
    there is no fixed point).  The type is read off the dual cone; the
    Hilbert basis is built only on request, by slice_basis."""

    name: str
    semigroup: AffineSemigroup
    singularity: CyclicSingularity | None
    note: str = ""


@_once
def slice_surfaces(
    params: SL2Params,
) -> tuple[SliceSurface, SliceSurface, SliceSurface]:
    p, q, a, b = params.p, params.q, params.a, params.b

    def build(name: str, which: str, expected_order: int | None):
        semi = slice_semigroup(params, which)
        try:
            sing = classify_2d(Cone(dual_cone_rays(semi)))
        except ValueError:
            _require(expected_order is None, "slice is not pointed", name, expected_order)
            return SliceSurface(
                name, semi, None,
                note="cone is not pointed; no fixed point on this slice",
            )
        ok = expected_order is None or sing.order == expected_order
        _require(ok, "slice order", name, sing, expected_order)
        return SliceSurface(name, semi, sing)

    s_plus = build("S+", "plus", a * p)
    s_minus = build("S-", "minus", a * q)
    s_prime = build("S'", "prime", b if b >= 1 else None)
    return s_plus, s_minus, s_prime


@dataclass(frozen=True)
class ColoredConeData:
    """Spherical description in the lattice {(i,j) : index | i - j}, with
    the two colors as the dual basis vectors."""

    lattice_index: int
    rho: Vec
    rho_prime: Vec
    cones: dict[str, tuple[tuple[Vec, Vec], frozenset[str]]]
    rho_plus: Vec = (1, 0)
    rho_minus: Vec = (0, 1)

    def color_vector(self, name: str) -> Vec:
        return {"rho+": self.rho_plus, "rho-": self.rho_minus}[name]


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
            inside = cone_contains(Cone(gens), data.color_vector(color))
            _require(inside, "color off cone", name, color)
    # the exceptional chart sees no color at all
    exceptional = Cone(data.cones["E'"][0])
    for color in ("rho+", "rho-"):
        _require(not cone_contains(exceptional, data.color_vector(color)), "color in E'")
    # each contraction to E picks up the color opposite the one it kept
    _require(data.cones["E"][1] == data.cones["E-"][1] | {"rho-"}, "colors of E- -> E")
    _require(data.cones["E"][1] == data.cones["E+"][1] | {"rho+"}, "colors of E+ -> E")
    return data


@dataclass(frozen=True)
class ToricDegeneration:
    """Flat degeneration data: the rank-3 semigroup, the limit cone, and
    the fiber counts that match the module dimensions upstairs."""

    tilde: AffineSemigroup
    sigma0: Cone
    relation_coefficients: tuple[int, int, int, int]
    quasihomogeneous: bool
    fibers: tuple[tuple[Vec, int], ...]


@_once
def degeneration_fibers(params: SL2Params) -> tuple[tuple[Vec, int], ...]:
    """The count of the rank-3 semigroup's fiber over each S+ generator g,
    checked to be g[0] + g[1] + 1, the dimension of the module V_{i+j} that
    g spans.  Defined at height 1 as well."""
    tilde = slice_semigroup(params, "tilde")
    fibers = []
    for g in slice_basis(params, "plus").generators:
        count = fiber_count(tilde, g)
        _require(count == g[0] + g[1] + 1, "fiber count is not i + j + 1", g, count)
        fibers.append((g, count))
    return tuple(fibers)


@_once
def toric_degeneration(params: SL2Params) -> ToricDegeneration:
    p, q = params.p, params.q
    if params.b == 0:
        raise ValueError("no degeneration data at height 1")
    tilde = slice_semigroup(params, "tilde")
    sigma0 = sigma0_of(p, q)
    coeffs = (p, p, p + q, 1)
    quasi = gaifullin_criterion(sigma0.rays, coeffs)
    _require(not quasi, "sigma0 is quasihomogeneous")
    return ToricDegeneration(tilde, sigma0, coeffs, quasi, degeneration_fibers(params))


def embedding_data(params: SL2Params) -> tuple[tuple[Vec, str, int], ...]:
    """Hilbert basis of the upper semigroup, each generator labeled by the
    irreducible module V_{i+j} it spans (dimension i + j + 1)."""
    gens = slice_basis(params, "plus").generators
    return tuple((g, f"V_{g[0] + g[1]}", g[0] + g[1] + 1) for g in gens)


@dataclass(frozen=True)
class VarietySummary:
    name: str
    orbits: tuple[str, ...]
    smooth: bool
    slice_singularity: CyclicSingularity | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FlipReport:
    """Everything about the flip diagram E- -> E <- E+ plus the one-step
    resolution E'."""

    params: SL2Params
    canonical: CanonicalClass
    k_degrees: tuple[Fraction, Fraction]
    semistable: dict[str, SemistableReport]
    varieties: dict[str, VarietySummary]
    colored: ColoredConeData
    proj_descriptions: dict[str, str]
    convention_note: str


CONVENTION_NOTE = (
    "sign convention: the plus side is the small modification whose wall "
    "curve has positive K-degree, matching E+ = Proj of the nK section "
    "ring; an alternative labeling swaps the two sides, so the K-sign and "
    "the Proj description are authoritative here (ap sits on the plus "
    "wall, aq on the minus wall)"
)


def flip_report(params: SL2Params) -> FlipReport:
    m, b = params.m, params.b
    if b == 0:
        raise ValueError("no flip for height 1")
    k_minus, k_plus = intersection_numbers(params)
    _require(k_minus < 0 < k_plus, "K-degree signs", k_minus, k_plus)

    act, chars = action(params), characters(params)
    semistable = {
        name: semistable_locus(act, chars[name], b)
        for name in ("plus", "minus", "trivial")
    }

    # below height 1 slice_surfaces has checked that all three are pointed
    s_plus, s_minus, s_prime = slice_surfaces(params)

    varieties = {
        "E": VarietySummary(
            name="E",
            orbits=orbit_structure(params),
            smooth=False,
            slice_singularity=None,
            notes=("isolated singularity at the fixed point O",),
        ),
        "E'": VarietySummary(
            name="E'",
            orbits=(f"SL(2)/C_{m}", "exceptional divisor D'", "curve C"),
            smooth=s_prime.singularity.is_smooth,
            slice_singularity=s_prime.singularity,
            notes=(
                "blow-up of the fixed point; smooth along C iff the slice "
                "singularity is trivial",
            ),
        ),
    }
    for name, surface, curve in (("E-", s_minus, "C-"), ("E+", s_plus, "C+")):
        varieties[name] = VarietySummary(
            name=name,
            orbits=(f"SL(2)/C_{m}", f"flipped curve {curve}"),
            smooth=surface.singularity.is_smooth,
            slice_singularity=surface.singularity,
            notes=(f"homogeneous slice bundle over P^1 with slice {surface.singularity}",),
        )
    proj = {
        "E+": "Proj of the section ring of nK, n >= 0",
        "E-": "Proj of the section ring of -nK, n >= 0",
    }
    return FlipReport(
        params=params,
        canonical=canonical_class(params),
        k_degrees=(k_minus, k_plus),
        semistable=semistable,
        varieties=varieties,
        colored=colored_cones(params),
        proj_descriptions=proj,
        convention_note=CONVENTION_NOTE,
    )
