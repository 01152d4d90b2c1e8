"""Exact integer arithmetic shared by the other modules.

Everything here is small and closed-form: the 2x2 determinant, primitive
vectors, the extended gcd, the Hermite basis of a sublattice of Z^2, and
finitely generated abelian groups in invariant-factor form.  Every lattice
the package meets has rank at most 3, so its callers read cokernels,
multiplicities and solves off xgcd and explicit minors, and every rank-2
Hermite basis, of a span (git) or of a congruence kernel (semigroup), off
the one routine here; no general matrix normal form is computed.
The bounded Diophantine enumerator, a test oracle, lists solutions in
lexicographic order.  The record decorator gives every value class of the
package its frozen-dataclass methods.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

Vec = tuple[int, ...]


def record(cls):
    """Give cls the methods dataclasses.dataclass(frozen=True) would: an
    __init__ over the annotated fields, with the class-level defaults, that
    calls __post_init__ when the class has one; a repr in dataclass format;
    equality and hash of the field tuple, equal only within one class; and
    assignment and deletion refused with AttributeError.  Instances keep a
    __dict__, where sl2core._once and cached_property store their values
    and SL2Params its derived (k, a, b).

    The methods that read the fields are compiled from one source per
    class, so each call runs the code a dataclass would run; importing
    dataclasses instead would pull inspect into the start-up of every
    command.
    """
    names = tuple(cls.__annotations__)
    defaults = {f"_default_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_default_{n}" if n in cls.__dict__ else n for n in names)
    own = "".join(f"self.{n}," for n in names)
    other = "".join(f"other.{n}," for n in names)
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = "\n".join([
        f"def __init__(self, {params}):",
        *(f"    _setattr(self, {n!r}, {n})" for n in names),
        *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "def __repr__(self):",
        f"    return self.__class__.__qualname__ + f'({fields})'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({own}) == ({other})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({own}))",
    ])
    namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__, **defaults}
    exec(source, namespace)
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class CrossCheckError(Exception):
    """A computed invariant disagrees with an independent derivation of it.

    Every cross-check of the package raises this, in every mode: the checks
    are plain conditionals, not asserts, so they also run under python -O.
    """


def _require(ok: bool, what: str, *values) -> None:
    """Raise CrossCheckError for what, with values, unless ok.  The message
    is formatted only on failure."""
    if not ok:
        raise CrossCheckError(f"{what}: {values}" if values else what)


def _vec(v: Sequence[int]) -> Vec:
    return tuple(int(x) for x in v)


def det2(u: Sequence[int], v: Sequence[int]) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = math.gcd(*v)
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


def _hermite_basis(vectors) -> tuple[int, int, int]:
    """Hermite basis (alpha, beta), (0, gamma) of the sublattice of Z^2
    spanned by vectors, merged in one vector at a time by xgcd.

    alpha, gamma >= 0 and 0 <= beta < gamma when gamma > 0.  alpha = 0
    exactly when the lattice lies in 0 x Z; then beta = 0 and the lattice
    is gamma*Z in the second coordinate.
    """
    alpha = beta = gamma = 0
    for x, y in vectors:
        u, v, g = xgcd(alpha, x)
        if g:
            # (x/g)(alpha, beta) - (alpha/g)(x, y) has first coordinate 0
            gamma = math.gcd(gamma, x // g * beta - alpha // g * y)
            alpha, beta = g, u * beta + v * y
        else:
            gamma = math.gcd(gamma, y)
        if gamma:
            beta %= gamma
    return alpha, beta, gamma


@record
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

