"""End-to-end invariants of the normal affine SL(2)-threefolds classified
by a height h = p/q and a degree m.

Everything downstream of the classification datum lives here: the Cox
presentation, orbit structure, divisor class group, canonical class, the
flip with its intersection numbers, slice surfaces, colored cones, and the
toric degeneration.  The modules lattice/semigroup/toricgeom/git do the
actual computing; this one wires them together and cross-checks the
answers against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .git import (
    DiagonalAction,
    GroupCharacter,
    SemistableReport,
    monomial_character,
    semistable_locus,
    standard_action,
    standard_characters,
)
from .lattice import FinAbGroup, IntMatrix, Vec, cokernel
from .semigroup import (
    AffineSemigroup,
    HilbertBasis,
    dual_cone_rays,
    fiber_count,
    hilbert_basis,
    make_Mminus,
    make_Mplus,
    make_Mprime,
    make_Mtilde,
)
from .toricgeom import (
    Cone,
    CyclicSingularity,
    classify_2d,
    common_wall,
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
    "DivisorClassGroup",
    "FlipReport",
    "SL2Params",
    "SliceSurface",
    "ToricDegeneration",
    "VarietySummary",
    "canonical_class",
    "class_group",
    "colored_cones",
    "cox_presentation",
    "derive_params",
    "embedding_data",
    "flip_report",
    "intersection_numbers",
    "is_smooth",
    "is_toric",
    "iter_instances",
    "orbit_structure",
    "slice_surfaces",
    "toric_degeneration",
]


@dataclass(frozen=True)
class SL2Params:
    """Classification datum (h = p/q, m) with the derived (k, a, b).

    k = gcd(q - p, m) with the convention k = m at height 1, a = m/k,
    b = (q - p)/k.  Height 1 is exactly b = 0; the variety is toric exactly
    when b = 1.
    """

    p: int
    q: int
    m: int
    k: int
    a: int
    b: int

    def __post_init__(self):
        if not (0 < self.p <= self.q and self.m >= 1):
            raise ValueError("need 0 < p <= q and m >= 1")
        if gcd(self.p, self.q) != 1:
            raise ValueError("p/q must be in lowest terms")
        expected_k = self.m if self.p == self.q else gcd(self.q - self.p, self.m)
        if self.k != expected_k:
            raise ValueError("k is not gcd(q - p, m)")
        if self.m != self.a * self.k or self.q - self.p != self.b * self.k:
            raise ValueError("a, b do not match k")
        assert gcd(self.a, self.b) == 1 or self.b == 0

    @property
    def height(self) -> Fraction:
        return Fraction(self.p, self.q)


def derive_params(p: int, q: int, m: int, strict: bool = False) -> SL2Params:
    """Build SL2Params from raw integers.

    An unreduced p/q is absorbed by reducing; with strict=True it is
    rejected instead.  Heights above 1 are always rejected.
    """
    if p < 1 or q < 1 or m < 1:
        raise ValueError("p, q, m must be positive")
    g = gcd(p, q)
    if g > 1:
        if strict:
            raise ValueError(f"height {p}/{q} is not in lowest terms")
        p, q = p // g, q // g
    if p > q:
        raise ValueError("height must be at most 1")
    k = m if p == q else gcd(q - p, m)
    return SL2Params(p, q, m, k, m // k, (q - p) // k)


def iter_instances(qmax: int, mmax: int):
    """All parameter triples with q <= qmax, m <= mmax, ordered by (q,p,m)."""
    for q in range(1, qmax + 1):
        for p in range(1, q + 1):
            if gcd(p, q) != 1:
                continue
            for m in range(1, mmax + 1):
                yield derive_params(p, q, m)


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
    return CoxPresentation(params.b, standard_action(params.p, params.q, params.m))


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

    group presents ([D], [S+]) with the relation ap[D] + m[S+] = 0; alt
    presents ([D], [S-]) with -aq[D] + m[S-] = 0.  Both must normalize to
    Z x Z/a.
    """

    group: FinAbGroup
    alt: FinAbGroup
    characters: dict[str, GroupCharacter]

    def class_of_D(self) -> Vec:
        return self.group.element(0)

    def class_of_S_plus(self) -> Vec:
        return self.group.element(1)


def class_group(params: SL2Params) -> DivisorClassGroup:
    p, q, m, a = params.p, params.q, params.m, params.a
    group = cokernel(IntMatrix.from_cols([(a * p, m)], rows=2))
    alt = cokernel(IntMatrix.from_cols([(-a * q, m)], rows=2))
    expected = (1, () if a == 1 else (a,))
    for g in (group, alt):
        assert (g.free_rank, g.torsion) == expected
    chars = standard_characters(p, q, m)
    act = standard_action(p, q, m)
    # the generators are cut out by coordinates, so their classes must match
    # the characters of those coordinates
    for idx, name in ((0, "D"), (2, "S_plus"), (4, "S_minus")):
        exps = tuple(1 if i == idx else 0 for i in range(5))
        assert monomial_character(act, exps) == chars[name]
    # the relations must already hold at the character level
    for coeff, name in ((a * p, "S_plus"), (-a * q, "S_minus")):
        total_t = coeff * chars["D"].torus_part + m * chars[name].torus_part
        total_f = coeff * chars["D"].finite_part + m * chars[name].finite_part
        assert total_t == 0 and total_f % act.finite_order == 0
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


def canonical_class(params: SL2Params) -> CanonicalClass:
    p, q, k, b = params.p, params.q, params.k, params.b
    cl = class_group(params)
    coeff = -(1 + b)
    coords = cl.group.reduce(tuple(coeff * c for c in cl.class_of_D()))
    chi = GroupCharacter(-k + 2 * p - 2 * q, 0)
    chi_prime = GroupCharacter(q - p, 0)
    chi_plus = GroupCharacter(-k + p - q, 0)
    assert chi.torus_part + chi_prime.torus_part == chi_plus.torus_part
    assert chi_plus.torus_part == coeff * k
    return CanonicalClass(coeff, coords, chi, chi_prime, chi_plus)


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
            assert got == want
    return minus, plus


@dataclass(frozen=True)
class SliceSurface:
    """A two-dimensional slice: its exponent semigroup, Hilbert basis, and
    the cyclic quotient type at the fixed point (None when the cone is not
    pointed and there is no fixed point)."""

    name: str
    semigroup: AffineSemigroup
    basis: HilbertBasis | None
    singularity: CyclicSingularity | None
    note: str = ""


def slice_surfaces(
    params: SL2Params,
) -> tuple[SliceSurface, SliceSurface, SliceSurface]:
    p, q, m = params.p, params.q, params.m
    a, b = params.a, params.b

    def build(name: str, semi: AffineSemigroup, expected_order: int | None):
        try:
            basis = hilbert_basis(semi)
            sing = classify_2d(Cone(dual_cone_rays(semi)))
        except ValueError:
            return SliceSurface(
                name, semi, None, None,
                note="cone is not pointed; no fixed point on this slice",
            )
        if expected_order is not None:
            assert sing.order == expected_order, (name, sing, expected_order)
        return SliceSurface(name, semi, basis, sing)

    s_plus = build("S+", make_Mplus(p, q, m), a * p)
    s_minus = build("S-", make_Mminus(p, q, m), a * q)
    s_prime = build("S'", make_Mprime(p, q, m), b if b >= 1 else None)
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


def _in_2d_cone(gens: tuple[Vec, Vec], x: Vec) -> bool:
    from .lattice import det2

    d = det2(gens[0], gens[1])
    assert d != 0
    alpha = Fraction(det2(x, gens[1]), d)
    beta = Fraction(det2(gens[0], x), d)
    return alpha >= 0 and beta >= 0


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
    assert rho[0] + rho[1] <= 0  # valuation cone
    for name, (gens, colors) in data.cones.items():
        from .lattice import det2

        assert det2(gens[0], gens[1]) != 0, name  # strict convexity
        for color in colors:
            assert _in_2d_cone(gens, data.color_vector(color)), (name, color)
    # the exceptional chart sees no color at all
    for color in ("rho+", "rho-"):
        assert not _in_2d_cone(data.cones["E'"][0], data.color_vector(color))
    # each contraction to E picks up the color opposite the one it kept
    assert data.cones["E"][1] == data.cones["E-"][1] | {"rho-"}
    assert data.cones["E"][1] == data.cones["E+"][1] | {"rho+"}
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


def toric_degeneration(params: SL2Params) -> ToricDegeneration:
    p, q, m = params.p, params.q, params.m
    if params.b == 0:
        raise ValueError("no degeneration data at height 1")
    tilde = make_Mtilde(p, q, m)
    sigma0 = sigma0_of(p, q)
    coeffs = (p, p, p + q, 1)
    quasi = gaifullin_criterion(sigma0.rays, coeffs)
    assert not quasi
    fibers = []
    for g in hilbert_basis(make_Mplus(p, q, m)).generators:
        count = fiber_count(tilde, g)
        assert count == g[0] + g[1] + 1
        fibers.append((g, count))
    return ToricDegeneration(tilde, sigma0, coeffs, quasi, tuple(fibers))


def embedding_data(params: SL2Params) -> tuple[tuple[Vec, str, int], ...]:
    """Hilbert basis of the upper semigroup, each generator labeled by the
    irreducible module V_{i+j} it spans (dimension i + j + 1)."""
    hb = hilbert_basis(make_Mplus(params.p, params.q, params.m))
    return tuple((g, f"V_{g[0] + g[1]}", g[0] + g[1] + 1) for g in hb.generators)


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
    p, q, m = params.p, params.q, params.m
    a, b = params.a, params.b
    if b == 0:
        raise ValueError("no flip for height 1")
    k_minus, k_plus = intersection_numbers(params)
    assert k_minus < 0 < k_plus

    act = standard_action(p, q, m)
    chars = standard_characters(p, q, m)
    semistable = {
        name: semistable_locus(act, chars[name], b)
        for name in ("plus", "minus", "trivial")
    }

    s_plus, s_minus, s_prime = slice_surfaces(params)
    assert s_plus.singularity is not None and s_minus.singularity is not None
    assert s_prime.singularity is not None

    varieties = {
        "E": VarietySummary(
            name="E",
            orbits=orbit_structure(params),
            smooth=False,
            slice_singularity=None,
            notes=("isolated singularity at the fixed point O",),
        ),
        "E-": VarietySummary(
            name="E-",
            orbits=(f"SL(2)/C_{m}", "flipped curve C-"),
            smooth=s_minus.singularity.is_smooth,
            slice_singularity=s_minus.singularity,
            notes=(f"homogeneous slice bundle over P^1 with slice {s_minus.singularity}",),
        ),
        "E+": VarietySummary(
            name="E+",
            orbits=(f"SL(2)/C_{m}", "flipped curve C+"),
            smooth=s_plus.singularity.is_smooth,
            slice_singularity=s_plus.singularity,
            notes=(f"homogeneous slice bundle over P^1 with slice {s_plus.singularity}",),
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
