"""The seven-bound GDoF region of the 2-user MIMO interference channel.

Builds the region as an exact 2-D polytope in (d1, d2), enumerates its
vertices, tests membership, evaluates the symmetric GDoF, checks channel
reciprocity, and sweeps the symmetric GDoF over a grid of cross-link
exponents with breakpoint detection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .core_math import ZERO, RationalLike, f, g, pos_part, rat

Point = Tuple[Fraction, Fraction]

ONE = Fraction(1)

BOUND_KINDS = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")


@dataclass(frozen=True)
class AntennaProfile:
    """Antenna counts (M1, N1, M2, N2) at Tx1, Rx1, Tx2, Rx2."""

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self):
        for name in ("m1", "n1", "m2", "n2"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"antenna count {name}={v!r} must be a positive integer")

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.m1, self.n1, self.m2, self.n2)


@dataclass(frozen=True)
class ExponentProfile:
    """SNR/INR exponents [a11, a12, a21, a22] relative to the nominal SNR.

    The first direct-link exponent is the normalization and must equal 1;
    rescale all four exponents by 1/a11 first if it does not (this rescales
    GDoF units by the same factor).
    """

    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            v = rat(getattr(self, name))
            if v < 0:
                raise ValueError(f"exponent {name}={v} must be nonnegative")
            object.__setattr__(self, name, v)
        if self.a11 != 1:
            raise ValueError(
                f"a11={self.a11} is not normalized: divide all exponents by "
                f"{self.a11} (GDoF rescales accordingly) and retry"
            )

    @classmethod
    def symmetric(cls, alpha: RationalLike) -> "ExponentProfile":
        """The [1, alpha, alpha, 1] template used throughout the sweeps."""
        a = rat(alpha)
        return cls(ONE, a, a, ONE)

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a11, self.a12, self.a21, self.a22)


@dataclass(frozen=True)
class GdofBound:
    """One linear bound c1*d1 + c2*d2 <= rhs."""

    kind: str
    c1: Fraction
    c2: Fraction
    rhs: Fraction

    def holds_at(self, point: Point) -> bool:
        return self.c1 * point[0] + self.c2 * point[1] <= self.rhs

    def slack_at(self, point: Point) -> Fraction:
        return self.rhs - self.c1 * point[0] - self.c2 * point[1]


@dataclass(frozen=True)
class GdofRegion:
    """A bound list plus its vertex set, ordered counterclockwise from the
    origin.  Immutable; all coordinates exact rationals."""

    bounds: Tuple[GdofBound, ...]
    vertices: Tuple[Point, ...]

    def contains(self, point: Point) -> bool:
        return contains(self, point)

    @functools.cached_property
    def _int_rows(self) -> Tuple[Tuple[int, int, int], ...]:
        """Each bound as integers (a, b, c): c1, c2, rhs scaled by the lcm
        of their denominators, so a*d1 + b*d2 <= c is the same halfplane."""
        rows = []
        for b in self.bounds:
            s = math.lcm(b.c1.denominator, b.c2.denominator, b.rhs.denominator)
            rows.append(tuple(v.numerator * (s // v.denominator)
                              for v in (b.c1, b.c2, b.rhs)))
        return tuple(rows)


@functools.lru_cache(maxsize=1024)
def channel_terms(
    ant: AntennaProfile, exp: ExponentProfile
) -> Tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    """The six MAC terms (mac_rx2, mac_rx1, priv1, priv2, mix1, mix2).

    They are built from f and g with beta_ij = (a_ii - a_ij)^+,
    m_ij = min(M_i, N_j) and the null-space dimensions e_i = (M_i - N_j)^+
    of the cross links; the region bounds and the split constraints both
    read them from here.
    """
    m1, n1, m2, n2 = ant.as_tuple()
    a11, a12, a21, a22 = exp.as_tuple()
    b12, b21 = pos_part(a11 - a12), pos_part(a22 - a21)
    m12, m21 = min(m1, n2), min(m2, n1)
    e1, e2 = int(pos_part(m1 - n2)), int(pos_part(m2 - n1))
    return (
        f(n2, (a12, m1), (a22, m2)),
        f(n1, (a21, m2), (a11, m1)),
        f(n1, (b12, m12), (a11, e1)),
        f(n2, (b21, m21), (a22, e2)),
        g(n1, (a21, m2), (b12, m12), (a11, e1)),
        g(n2, (a12, m1), (b21, m21), (a22, e2)),
    )


def region_bounds(ant: AntennaProfile, exp: ExponentProfile) -> List[GdofBound]:
    """The seven bounds of the fundamental GDoF region.

    Right-hand sides are sums of the MAC terms of :func:`channel_terms`.
    The weighted left-hand sides are d1 + a22*d2 (D3-D5), 2*d1 + a22*d2 (D6)
    and d1 + 2*a22*d2 (D7).
    """
    m1, n1, m2, n2 = ant.as_tuple()
    a22 = exp.a22
    mac_rx2, mac_rx1, priv1, priv2, mix1, mix2 = channel_terms(ant, exp)
    return [
        GdofBound("D1", ONE, ZERO, Fraction(min(m1, n1))),
        GdofBound("D2", ZERO, ONE, Fraction(min(m2, n2))),
        GdofBound("D3", ONE, a22, mac_rx2 + priv1),
        GdofBound("D4", ONE, a22, mac_rx1 + priv2),
        GdofBound("D5", ONE, a22, mix1 + mix2),
        GdofBound("D6", 2 * ONE, a22, mac_rx1 + priv1 + mix2),
        GdofBound("D7", ONE, 2 * a22, mac_rx2 + priv2 + mix1),
    ]


def _ccw_from_origin(points: List[Point]) -> Tuple[Point, ...]:
    """Order the vertices of a convex set counterclockwise, origin first."""
    if len(points) <= 2:
        ordered = sorted(points)
    else:
        n = len(points)
        cx = sum(p[0] for p in points) / n
        cy = sum(p[1] for p in points) / n

        def cmp(p: Point, q: Point) -> int:
            pdx, pdy = p[0] - cx, p[1] - cy
            qdx, qdy = q[0] - cx, q[1] - cy
            ph = 0 if (pdy > 0 or (pdy == 0 and pdx > 0)) else 1
            qh = 0 if (qdy > 0 or (qdy == 0 and qdx > 0)) else 1
            if ph != qh:
                return ph - qh
            cross = pdx * qdy - pdy * qdx
            return -1 if cross > 0 else (1 if cross < 0 else 0)

        ordered = sorted(points, key=functools.cmp_to_key(cmp))
    origin = (ZERO, ZERO)
    if origin in ordered:
        i = ordered.index(origin)
        ordered = ordered[i:] + ordered[:i]
    return tuple(ordered)


def build_region(bounds: Sequence[GdofBound]) -> GdofRegion:
    """Intersect the bounds with the nonnegative quadrant and enumerate all
    vertices by exact pairwise line intersection.

    At most 9 constraint lines give at most 36 candidates; every feasible
    pairwise intersection of a convex halfplane system is a genuine vertex,
    so filtering plus dedup is complete.
    """
    lines: List[Tuple[Fraction, Fraction, Fraction]] = [
        (-ONE, ZERO, ZERO),  # d1 >= 0
        (ZERO, -ONE, ZERO),  # d2 >= 0
    ]
    lines += [(b.c1, b.c2, b.rhs) for b in bounds]

    candidates = set()
    for i in range(len(lines)):
        a1, b1, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if x >= 0 and y >= 0:
                candidates.add((x, y))

    feasible = [
        p for p in candidates
        if all(a * p[0] + b * p[1] <= c for a, b, c in lines)
    ]
    return GdofRegion(tuple(bounds), _ccw_from_origin(feasible))


def region_of(ant: AntennaProfile, exp: ExponentProfile) -> GdofRegion:
    """The fundamental GDoF region of the (M1,N1,M2,N2) channel."""
    return build_region(region_bounds(ant, exp))


def exact_point(point: Point) -> Point:
    """The coordinates as Fractions; only non-Fractions go through rat()."""
    x, y = point
    return (x if isinstance(x, Fraction) else rat(x),
            y if isinstance(y, Fraction) else rat(y))


def contains(region: GdofRegion, point: Point) -> bool:
    """Exact membership test: nonnegative and inside every bound, checked
    on integer rows (a, b, c) as a*xn*yd + b*yn*xd <= c*xd*yd."""
    x, y = exact_point(point)
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if xn < 0 or yn < 0:
        return False
    xs, ys, cs = xn * yd, yn * xd, xd * yd
    for a, b, c in region._int_rows:
        if a * xs + b * ys > c * cs:
            return False
    return True


def _symmetric_with_active(bounds: Iterable[GdofBound]) -> Tuple[Fraction, str]:
    """The least rhs/(c1+c2) over the bounds and the kind of the first bound
    attaining it: the symmetric GDoF and its active bound."""
    return min(((b.rhs / (b.c1 + b.c2), b.kind) for b in bounds),
               key=lambda vk: vk[0])


def symmetric_gdof(ant: AntennaProfile, exp: ExponentProfile) -> Fraction:
    """Largest d with (d, d) in the region: min over bounds of rhs/(c1+c2)."""
    return _symmetric_with_active(region_bounds(ant, exp))[0]


def reciprocal(
    ant: AntennaProfile, exp: ExponentProfile
) -> Tuple[AntennaProfile, ExponentProfile]:
    """The channel with transmitter and receiver roles interchanged: antennas
    (N1, M1, N2, M2) and exponents [1, a21, a12, a22]."""
    rant = AntennaProfile(ant.n1, ant.m1, ant.n2, ant.m2)
    rexp = ExponentProfile(ONE, exp.a21, exp.a12, exp.a22)
    return rant, rexp


def regions_equal(r1: GdofRegion, r2: GdofRegion) -> bool:
    """Equality of the two polytopes, via their exact vertex sets."""
    return set(r1.vertices) == set(r2.vertices)


@dataclass(frozen=True)
class SweepPoint:
    alpha: Fraction
    d_sym: Fraction
    active_bound: str
    is_breakpoint: bool


@dataclass(frozen=True)
class SweepResult:
    points: Tuple[SweepPoint, ...]

    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(p.alpha for p in self.points if p.is_breakpoint)


ExponentTemplate = Callable[[Fraction], ExponentProfile]


def sweep_alpha(
    ant: AntennaProfile,
    grid: Iterable[RationalLike],
    template: Optional[ExponentTemplate] = None,
) -> SweepResult:
    """Symmetric GDoF along a grid of cross-link exponents.

    ``template`` maps a single alpha to a full exponent profile; the default
    is [1, alpha, alpha, 1].  Interior grid points where the left and right
    secant slopes differ are flagged as breakpoints (the curve is piecewise
    linear with rational kinks, so a grid that hits the kinks detects all of
    them exactly).
    """
    if template is None:
        template = ExponentProfile.symmetric
    alphas = sorted(set(rat(a) for a in grid))
    values: List[Tuple[Fraction, str]] = [
        _symmetric_with_active(region_bounds(ant, template(a))) for a in alphas
    ]

    points: List[SweepPoint] = []
    for i, (a, (v, active)) in enumerate(zip(alphas, values)):
        is_bp = False
        if 0 < i < len(alphas) - 1:
            left = (v - values[i - 1][0]) / (a - alphas[i - 1])
            right = (values[i + 1][0] - v) / (alphas[i + 1] - a)
            is_bp = left != right
        points.append(SweepPoint(a, v, active, is_bp))
    return SweepResult(tuple(points))
