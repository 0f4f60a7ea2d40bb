"""Lengths and short-curve bias functions on the once-punctured torus.

Extremal length is the single length functional: for a curve class (p,q)
on the torus of modulus z it is |p + qz|^2 / Im z, the squared flat
length over the area.  The systole is its minimum over primitive classes.

BiasParams is the parameter pack (tau, K, top eps rung) of the bias
functions f_j = prod (eps_i / l_i)^s and u = sum f_j on a product of m
tori.  The exponent s is the constant BIAS_EXPONENT = 1/2, the one
value the checks use.  products reads the depth of the top rung eps_m
for the m-factor contraction check, and evaluates f_1 and u for one
factor, where eps_1 is that top rung.  Eps values decay so fast that
they are stored as logarithms; everything that consumes them works in
log space and only exponentiates quantities that are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .halfplane import ModelPoint, reduce_points, reduce_to_fundamental

# Largest possible systole, attained at the hexagonal point.
MAX_SYSTOLE = 2.0 / math.sqrt(3.0)
# The exponent s of the bias functions and of the contraction ratio.
BIAS_EXPONENT = 0.5

# On F the systole is attained among these classes: any |q| >= 2 gives
# Ext >= q^2 y >= 4*(sqrt(3)/2) > MAX_SYSTOLE, and |p| >= 2 with |q| <= 1
# is dominated by the (1, +-1) candidates.
_FUND_CANDIDATES = ((1, 0), (0, 1), (1, 1), (1, -1))


@dataclass(frozen=True)
class CurveClass:
    """Primitive homotopy class (p, q), normalized so q > 0 or (p,q) = (1,0)."""

    p: int
    q: int

    def __post_init__(self):
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"curve class must be primitive, got ({self.p}, {self.q})")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            raise ValueError("curve class must be normalized with q > 0, or (1, 0)")

    @staticmethod
    def normalized(p: int, q: int) -> "CurveClass":
        g = gcd(p, q)
        if g == 0:
            raise ValueError("curve class (0, 0) is not a curve")
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return CurveClass(p, q)


def extremal_length(curve: CurveClass, x, y):
    """Extremal length of the curve at x + iy; x and y may be arrays."""
    return ((curve.p + curve.q * x) ** 2 + (curve.q * y) ** 2) / y


def systole(z: ModelPoint) -> tuple[CurveClass, float]:
    """Shortest curve class and its extremal length; ties break lexicographically.

    Reduce to F, minimize over the four candidate classes there, and pull
    the winner back through the deck to the original marking.  Above
    y = 1 in F, (1, 0) is strictly shortest (1/y < 1 < q^2 y), so the
    others, whose squares could overflow for huge y, are skipped.
    """
    zr, deck = reduce_to_fundamental(z)
    cands = []
    for p, q in _FUND_CANDIDATES if zr.y <= 1.0 else _FUND_CANDIDATES[:1]:
        val = ((p + q * zr.x) ** 2 + (q * zr.y) ** 2) / zr.y
        # Ext((p,q), z) = Ext((pa - qb, -pc + qd), deck z); invert that map.
        p0 = deck.d * p + deck.b * q
        q0 = deck.c * p + deck.a * q
        if q0 < 0 or (q0 == 0 and p0 < 0):
            p0, q0 = -p0, -q0
        cands.append((val, p0, q0))
    val, p0, q0 = min(cands)
    return CurveClass(p0, q0), val


def systole_values(x, y):
    """Vectorized systole extremal lengths (values only).

    On F the other candidate classes are never shorter than (1, 0), up
    to the boundary tolerance, so the systole is 1/Im of the reduced point.
    """
    return 1.0 / reduce_points(x, y)[1]


@dataclass(frozen=True)
class BiasParams:
    """Parameter pack for the bias functions.

    It holds the one eps rung the checks read, the top rung m, in log
    space: for m factors at step radius tau, K slightly exceeds
    e^{2 m tau} and eps_m = K^{-3}/2, far below float range for large
    m * tau.  log_eps is log eps_m and log_eps_prime is
    log eps'_m = log(eps_m / (m K^2)).
    """

    m: int
    tau: float
    log_K: float
    log_eps: float
    log_eps_prime: float

    @staticmethod
    def default(m: int = 1, tau: float = 3.0) -> "BiasParams":
        """Canonical top rung: eps_m = K^{-3}/2, with 2x slack."""
        log_K = 2.0 * m * tau + math.log1p(1e-3)
        log_eps = -3.0 * log_K - math.log(2.0)
        log_eps_prime = log_eps - math.log(m) - 2.0 * log_K
        p = BiasParams(m, tau, log_K, log_eps, log_eps_prime)
        p.validate()
        return p

    def validate(self):
        if self.log_K <= 2.0 * self.m * self.tau:
            raise ValueError("K must exceed e^{2 m tau}")
        if self.log_eps >= -3.0 * self.log_K:
            raise ValueError("top eps must be below K^{-3}")
