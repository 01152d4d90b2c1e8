"""The classification datum (h = p/q, m) and the (k, a, b) derived from it:
the one place they are computed.  sl2core re-exports this module and builds
every object of an instance from an SL2Params."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lattice import _require, record

__all__ = ["SL2Params", "derive_params", "iter_instances"]


@record
class SL2Params:
    """Classification datum (h = p/q, m); k, a and b are derived from it on
    construction and kept as plain attributes, outside the fields.

    k = gcd(q - p, m) with the convention k = m at height 1, a = m/k,
    b = (q - p)/k.  Height 1 is exactly b = 0; the variety is toric exactly
    when b = 1.
    """

    p: int
    q: int
    m: int

    def __post_init__(self):
        p, q, m = self.p, self.q, self.m
        if not (0 < p <= q and m >= 1):
            raise ValueError("need 0 < p <= q and m >= 1")
        if gcd(p, q) != 1:
            raise ValueError("p/q must be in lowest terms")
        k = m if p == q else gcd(q - p, m)
        a, b = m // k, (q - p) // k
        _require(b == 0 or gcd(a, b) == 1, "gcd(a, b) != 1", self)
        self.__dict__.update(k=k, a=a, b=b)

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
    return SL2Params(p, q, m)


def iter_instances(qmax: int, mmax: int):
    """All parameter triples with q <= qmax, m <= mmax, ordered by (q,p,m).
    Each is coprime with 0 < p <= q and m >= 1, so SL2Params takes it as it
    is, without derive_params' checks and reduction."""
    for q in range(1, qmax + 1):
        for p in range(1, q + 1):
            if gcd(p, q) != 1:
                continue
            for m in range(1, mmax + 1):
                yield SL2Params(p, q, m)
