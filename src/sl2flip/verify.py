"""The rows of `sl2flip verify`, each (name, applies to b, check): a row
passes when its check returns and fails when it raises.  Five rows are
library calls, whose cross-checks raise CrossCheckError; the oracles here
raise it through _require.  Every package function is called through its
module, so a tracer that rebinds a module's name still sees the call."""

from fractions import Fraction

from . import git, lattice, semigroup, sl2core, toricgeom
from .lattice import CrossCheckError, _require
from .params import SL2Params


def _check_hilbert(params: SL2Params) -> None:
    """The S+ basis passes the Hirzebruch-Jung certificate of a 2-d cone
    (Oda, Convex Bodies, 1.6): along its chain it runs from (m, 0) to
    (aq, ap), the minimal points of the two rays; each consecutive pair has
    determinant m, the index of {i = j mod m}, so it generates; and each
    inner g has neighbours summing to c*g with c >= 2, so none is
    redundant.  That proves it is the Hilbert basis.

    The chain is read off the basis's runs in O(#runs).  On a run
    start + t*step each pair of neighbours has determinant det(start, step),
    each inner triple sums to 2 * its middle point, and i > 0 all along
    when it holds at both ends.  So each run is checked at its ends and its
    first two and last two points, and the pairs and triples where two
    runs meet are checked one by one.  Every point then lies in S+ \\ 0:
    from (m, 0) each step lies in {i = j mod m}, and so does each point
    c*g - u after a join; with i > 0 and positive determinants the points
    turn counterclockwise from one ray point to the other, inside the cone.
    At b = 1 the closed form {(m + t, t) : t = 0..ap} is the one run from
    (m, 0) by (1, 1)."""
    p, q, m, a = params.p, params.q, params.m, params.a
    runs = sl2core.slice_basis(params, "plus").runs
    if params.b == 1:
        closed = (((m, 0), (1, 1), a * p + 1),)
        _require(runs == closed, "basis at b = 1 is not {(m + t, t)}", runs)
    # the chain without the inner points of runs longer than 4, as pieces
    # of consecutive points
    pieces, piece = [], []
    for start, step, count in runs:
        end = (start[0] + (count - 1) * step[0], start[1] + (count - 1) * step[1])
        # i > 0 at both ends, so along the run: the c test divides by i
        inside = start[0] > 0 and end[0] > 0 and (step[0] - step[1]) % m == 0
        _require(inside, "run outside S+ \\ 0", start, step, count)
        if count <= 4:
            piece += [(start[0] + t * step[0], start[1] + t * step[1]) for t in range(count)]
        else:
            pieces.append([*piece, start, (start[0] + step[0], start[1] + step[1])])
            piece = [(end[0] - step[0], end[1] - step[1]), end]
    pieces.append(piece)
    ends = (pieces[0][0], pieces[-1][-1])
    _require(ends == ((m, 0), (a * q, a * p)), "chain ends are not (m, 0), (aq, ap)", ends)
    for chain in pieces:
        for u, v in zip(chain, chain[1:]):
            _require(lattice.det2(u, v) == m, "neighbours without determinant m", u, v)
        for u, g, v in zip(chain, chain[1:], chain[2:]):
            s = (u[0] + v[0], u[1] + v[1])
            c = s[0] // g[0]
            _require(c >= 2 and s == (c * g[0], c * g[1]), "not u + v = c*g, c >= 2", u, g, v)


def _check_u_oracle(params: SL2Params) -> None:
    """Y0^e X1^i X3^j is invariant under the torus with weights (1, -p, q)
    and mu_m with weights (0, -1, 1) iff e = pi - qj >= 0 and m | j - i, so
    its exponents (i, j >= 0) form the semigroup written below.  A saturated
    semigroup is its cone intersected with its lattice (Oda, Convex Bodies,
    1.6), and its normal form holds the Hermite basis of the lattice and the
    primitive rays in it: equal normal forms mean equal semigroups, with no
    box to search.  The model's normal form is computed here, fresh; S+'s
    is the one its Hilbert basis was read from."""
    p, q = params.p, params.q
    model = semigroup.AffineSemigroup(2, ((p, -q), (1, 0), (0, 1)), (((-1, 1), params.m),))
    found, want = model._normal_form, sl2core.slice_semigroup(params, "plus")._normal_form
    _require(found == want, "U-invariant cone and lattice other than S+", found, want)


def _check_smoothness(params: SL2Params) -> None:
    """The variety is smooth exactly at height 1 (b = 0), where
    intersection_numbers must refuse, and toric exactly at b = 1.  At
    b >= 1 the slices of E+, E- and E' have orders ap, aq and b, so each is
    smooth exactly when its order is 1; their types are slice_surfaces',
    kept for the slices row."""
    p, q, a, b = params.p, params.q, params.a, params.b
    flags = (sl2core.is_smooth(params), sl2core.is_toric(params))
    _require(flags == (b == 0, b == 1), "smooth and toric flags", flags)
    if b >= 1:
        found = tuple(sing.is_smooth for sing in sl2core.slice_surfaces(params))
        _require(found == (a * p == 1, a * q == 1, b == 1), "smooth slices", found)
        return
    try:
        sl2core.intersection_numbers(params)
    except ValueError:
        return
    raise CrossCheckError("intersection numbers defined at height 1")


def _check_k_signs(params: SL2Params) -> None:
    """K.C- * K.C+ = -(1+b)^2 k^2 / (apq)^2, compared by cross-multiplying
    numerators and denominators; the Fractions are built for the message."""
    minus, plus = sl2core.intersection_numbers(params)
    p, q, k, a, b = params.p, params.q, params.k, params.a, params.b
    num, den = -((1 + b) * k) ** 2, (a * p * q) ** 2
    if minus.numerator * plus.numerator * den != num * minus.denominator * plus.denominator:
        _require(False, "K-degree product", minus * plus, Fraction(num, den))


def _check_toric_bridge(params: SL2Params) -> None:
    """At b = 1 the variety is toric, with sigma = sigma_of(p, q, a), and two
    derivations from sigma's rays must hold: the wall relation gives the
    K-degrees of the flip's two wall curves, which intersection_numbers
    compares with its closed forms, and the star subdivision of sigma
    through e3 has only smooth cones."""
    sl2core.intersection_numbers(params)
    cones = toricgeom.star_subdivide_at_v5(toricgeom.sigma_of(params.p, params.q, params.a))
    singular = [c for c in cones if toricgeom.multiplicity(c) != 1]
    _require(not singular, "singular cones in the star subdivision", singular)


def _check_git_loci(params: SL2Params) -> None:
    act, chars = sl2core.action(params), sl2core.characters(params)
    want = {"plus": {"X1", "X2"}, "minus": {"X3", "X4"}, "trivial": set()}
    for name, expected in want.items():
        found = git.semistable_locus(act, chars[name], params.b).unstable_vanishing
        _require(found == expected, f"{name}-unstable coordinates", sorted(found))


def _check_stabilizer(params: SL2Params) -> None:
    """The stabilizer of each support {X1 or X2, X3 or X4} is trivial.  It
    depends only on the characters of the two coordinates, and X1, X2 share
    one, as do X3, X4, so one group is computed per distinct pair; the
    first support in this order whose group is not trivial is reported."""
    act = sl2core.action(params)
    char = dict(zip(git.COORDS, zip(act.torus_weights, act.finite_weights)))
    groups = {}
    for left in ("X1", "X2"):
        for right in ("X3", "X4"):
            pair = (char[left], char[right])
            if pair not in groups:
                groups[pair] = git.stabilizer_of_support(act, frozenset({left, right}))
            _require(groups[pair].is_trivial(), f"stabilizer on {left}, {right}", groups[pair])


ROWS = (
    ("hilbert", lambda b: True, _check_hilbert),
    ("u-oracle", lambda b: True, _check_u_oracle),
    ("class-group", lambda b: True, lambda params: sl2core.class_group(params)),
    ("canonical", lambda b: True, lambda params: sl2core.canonical_class(params)),
    ("smoothness", lambda b: True, _check_smoothness),
    ("stabilizer", lambda b: True, _check_stabilizer),
    ("k-signs", lambda b: b >= 1, _check_k_signs),
    ("toric-bridge", lambda b: b == 1, _check_toric_bridge),
    ("slices", lambda b: b >= 1, lambda params: sl2core.slice_surfaces(params)),
    ("git-loci", lambda b: b >= 1, _check_git_loci),
    ("cones", lambda b: b >= 1, lambda params: sl2core.colored_cones(params)),
    ("degeneration", lambda b: b >= 1, lambda params: sl2core.toric_degeneration(params)),
)
