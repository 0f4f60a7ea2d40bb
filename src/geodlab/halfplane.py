"""Upper half-plane model of the once-punctured-torus Teichmueller space.

Points are flat-torus moduli z = x + iy, y > 0.  Distances use the
Teichmueller normalization, half the standard hyperbolic metric, so the
counting entropy is h = 2 and extremal-length ratios between two points
are bounded by exp(2 d(X, Y)).

The mapping class group is the group of 2x2 integer matrices of
determinant one, acting by Mobius transformations.  The classical
fundamental domain F = {|Re z| <= 1/2, |z| >= 1} has hyperbolic area
pi/3; the unit frame bundle of the quotient has total measure
2 pi^2 / 3 before normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hyperbolic area of F and total frame measure (area x 2 pi directions).
FUND_AREA = math.pi / 3.0
TOTAL_FRAME_MEASURE = FUND_AREA * 2.0 * math.pi

# A point counts as inside the unit circle, and gets inverted, only when
# |z|^2 < 1 - BOUNDARY_TOL; the scalar and vector reductions share it.
BOUNDARY_TOL = 1e-12
REDUCE_CHUNK = 65_536  # reduce_in_place works through its input in chunks this long
MAX_INVERSIONS = 300  # reduce_in_place raises past this many inversions
_DECK_LIMIT = 2.0 ** 62  # float bound on deck entries, with margin below 2^63


class ReductionError(RuntimeError):
    """Reduction into F hit its iteration cap or left int64 deck range."""


@dataclass(frozen=True)
class ModelPoint:
    """A marked flat-torus modulus x + iy in the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")
        if self.y <= 0.0:
            raise ValueError(f"modulus must have positive imaginary part, got y={self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


class MappingClass:
    """Integer unimodular matrix; entries are arbitrary-precision ints."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        a, b, c, d = int(a), int(b), int(c), int(d)
        if a * d - b * c != 1:
            raise ValueError("mapping class must have determinant 1")
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def identity() -> "MappingClass":
        return MappingClass(1, 0, 0, 1)

    def inverse(self) -> "MappingClass":
        return MappingClass(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "MappingClass") -> "MappingClass":
        return MappingClass(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MappingClass):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"MappingClass({self.a}, {self.b}, {self.c}, {self.d})"

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def apply(self, z: ModelPoint) -> ModelPoint:
        den = complex(self.c * z.x + self.d, self.c * z.y)
        if abs(den) < 1e-300:
            raise OverflowError("Mobius denominator underflow; transformation is numerically degenerate here")
        w = complex(self.a * z.x + self.b, self.a * z.y) / den
        return ModelPoint(w.real, w.imag)


def hyp_dist(a: ModelPoint, b: ModelPoint) -> float:
    """Standard hyperbolic distance."""
    t = 1.0 + ((b.x - a.x) ** 2 + (b.y - a.y) ** 2) / (2.0 * a.y * b.y)
    return math.acosh(max(t, 1.0))


def teich_dist(a: ModelPoint, b: ModelPoint) -> float:
    """Teichmueller distance: half the hyperbolic distance."""
    return 0.5 * hyp_dist(a, b)


def hyp_dist_arrays(x1, y1, x2, y2):
    t = 1.0 + ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
    return np.arccosh(np.maximum(t, 1.0))


def hyp_ball_area(rho: float) -> float:
    return 2.0 * math.pi * (math.cosh(rho) - 1.0)


def reduce_to_fundamental(z: ModelPoint) -> tuple[ModelPoint, MappingClass]:
    """Scalar reduction into F with an exact deck: (z', deck) with deck(z) = z'."""
    x, y = z.x, z.y
    # deck rows as integers; row operations mirror the Mobius moves
    ga, gb, gc, gd = 1, 0, 0, 1
    for _ in range(10000):
        m = round(x)
        if m != 0:
            x -= m
            ga -= m * gc
            gb -= m * gd
            continue
        r2 = x * x + y * y
        if r2 < 1.0 - BOUNDARY_TOL:
            # z -> -1/z
            x, y = -x / r2, y / r2
            ga, gb, gc, gd = -gc, -gd, ga, gb
            continue
        break
    else:  # pragma: no cover - reduction always terminates
        raise ReductionError("reduction did not terminate")
    return ModelPoint(x, y), MappingClass(ga, gb, gc, gd)


def _translate(x, g, m):
    """z -> z - round(x) in place, round(x) going to m; with a deck g, also
    g <- T^{-m} g."""
    np.round(x, out=m)
    m += 0.0  # round gives -0.0 on (-1/2, 0]; x - (+0.0) keeps the sign of a zero
    x -= m
    if g is not None:
        # entrywise, not as max(axis=1) reductions over pairs, which cost
        # several times as much
        grow = (np.abs(m) * np.maximum(np.abs(g[:, 1, 0]), np.abs(g[:, 1, 1]))
                + np.maximum(np.abs(g[:, 0, 0]), np.abs(g[:, 0, 1])))
        if not np.all(grow < _DECK_LIMIT):
            raise ReductionError("deck translation would overflow int64")
        mi = m.astype(np.int64)
        g[:, 0, 0] -= mi * g[:, 1, 0]
        g[:, 0, 1] -= mi * g[:, 1, 1]


def _inside(x, y, f, mask):
    """Indices of the points (x, y) inside the unit circle; f[2:] and
    mask are scratch."""
    k = x.size
    sq, ysq, inside = f[2, :k], f[3, :k], mask[:k]
    np.multiply(x, x, out=sq)
    sq += np.multiply(y, y, out=ysq)
    np.less(sq, 1.0 - BOUNDARY_TOL, out=inside)
    return np.flatnonzero(inside)


def reduce_in_place(x, y, g=None) -> None:
    """Reduce 1-D float64 coordinate arrays into F, overwriting them.

    The vectorised reduction loop: translate once, then
    invert-and-translate the points still inside the unit circle until
    none is, revisiting only those, REDUCE_CHUNK points at a time.  With
    g, an int64 array of shape (n, 2, 2), the deck matrices are updated
    in place too, so that g.z = z' for the z that g held on entry.  Every
    step is elementwise, so a point's result does not depend on the
    points reduced with it.  Raises ReductionError when a point needs
    more than MAX_INVERSIONS inversions or a deck entry would leave int64.
    """
    # Every float and mask temporary is a view into these two arrays;
    # only the indices of the points still inside the unit circle are
    # allocated, one array per inversion step.  So no chunk allocates a
    # chunk-sized float array, which glibc would hand back to the system
    # and fault in again on the next chunk.
    n = max(1, min(x.size, REDUCE_CHUNK))
    f = np.empty((4, n))
    inside = np.empty(n, dtype=bool)
    deck = g is not None
    for lo in range(0, x.size, REDUCE_CHUNK):
        part = slice(lo, lo + REDUCE_CHUNK)
        cx, cy = x[part], y[part]
        cg = g[part] if deck else None
        _translate(cx, cg, f[0, :cx.size])
        idx = _inside(cx, cy, f, inside)
        for _ in range(MAX_INVERSIONS):
            if idx.size == 0:
                break
            k = idx.size
            # mode="clip" only skips take's bounds check, which makes it
            # buffer out; every index is in range
            ax = cx.take(idx, out=f[0, :k], mode="clip")
            ay = cy.take(idx, out=f[1, :k], mode="clip")
            r2 = np.multiply(ax, ax, out=f[2, :k])
            r2 += np.multiply(ay, ay, out=f[3, :k])
            # z -> -1/z: (-x / r2, y / r2)
            np.negative(ax, out=ax)
            ax /= r2
            ay /= r2
            # z -> -1/z acts on the deck as S = [[0, -1], [1, 0]] from the
            # left: the rows swap, and the new first row changes sign
            ag = None
            if deck:
                ag = cg[idx][:, ::-1]
                np.negative(ag[:, 0], out=ag[:, 0])
            _translate(ax, ag, f[2, :k])
            cx[idx], cy[idx] = ax, ay
            if deck:
                cg[idx] = ag
            idx = idx[_inside(ax, ay, f, inside)]
        if idx.size:
            raise ReductionError(f"{idx.size} points still inside the unit circle "
                                 f"after {MAX_INVERSIONS} inversions")


def reduce_points(x, y, deck: bool = False):
    """Vectorized reduction of coordinate arrays into F.

    Copies its inputs and reduces the copies with reduce_in_place, so x
    and y are left as they were.  Returns (x', y'), or (x', y', g) with
    deck=True, where g holds int64 matrices with g.z = z'.  Raises
    ReductionError when a point needs more than MAX_INVERSIONS inversions
    or a deck entry would leave int64.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    shape = x.shape
    x, y = x.reshape(-1), y.reshape(-1)
    g = np.tile(np.eye(2, dtype=np.int64), (x.size, 1, 1)) if deck else None
    reduce_in_place(x, y, g)
    if deck:
        return x.reshape(shape), y.reshape(shape), g.reshape(shape + (2, 2))
    return x.reshape(shape), y.reshape(shape)


def ball_slice_sq(y, yc, ch):
    """The squared x half-width 2 y yc ch - (y - yc)^2 of the slice at
    height y of the ball about a center at height yc, ch = cosh(2 r) - 1
    for its model radius r: |x - xc| <= sqrt of it inside the ball, and
    the line misses the ball where it is negative.  Elementwise."""
    return 2.0 * y * yc * ch - (y - yc) ** 2


def ball_points(center: ModelPoint, r: float, u, ang):
    """(x, y, rho): the points of the radius-r ball about center at area
    fraction u of the ball (inverse CDF in the hyperbolic radius rho) and
    angle ang, through the disk, then the affine isometry taking i to the
    center."""
    rho = np.arccosh(1.0 + u * (math.cosh(2.0 * r) - 1.0))
    w = np.tanh(rho / 2.0) * np.exp(1j * ang)
    z = (1j - 1j * w) / (1.0 + w)  # disk -> H, 0 -> i
    z = center.x + center.y * z
    return z.real, z.imag, rho


def sample_ball_arrays(center: ModelPoint, r: float, n: int, rng):
    """Uniform ball sample as coordinate arrays (ball_points at uniform u
    and angle).  Draw order: radii first, then angles."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    u = rng.random(n)
    if r == 0.0:
        return np.full(n, center.x), np.full(n, center.y)
    x, y, _ = ball_points(center, r, u, rng.random(n) * 2.0 * math.pi)
    return x, y
