"""The rate-splitting superposition scheme: covariance split, stream
decomposition, and an exact private/public GDoF split solver.

The covariance machinery is double-precision complex linear algebra on
sampled channels; the split solver stays in exact rationals.  The boundary
between the two worlds is :class:`ChannelInstance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .core_math import ZERO
from .region import (AntennaProfile, ExponentProfile, Point, channel_terms,
                     exact_point)

COND_THRESHOLD = 1e10


class RankDeficientChannel(ValueError):
    """A sampled cross-link matrix is numerically rank deficient."""


class SplitInfeasible(RuntimeError):
    """No private/public split satisfies the reconstructed constraint set."""

    def __init__(self, point: Point, constraints: List[Tuple[str, str]]):
        self.point = point
        self.constraints = constraints
        detail = "; ".join(f"{name}: {desc}" for name, desc in constraints)
        super().__init__(
            f"no feasible (d1p, d2p) for point {point}: {detail}"
        )


@dataclass(frozen=True)
class ChannelInstance:
    """One sampled channel realization at a nominal SNR.

    h_ij is the N_j x M_i matrix of the Tx_i -> Rx_j link; rho_ref is the
    nominal SNR rho, and each link operates at rho ** a_ij.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    exp: ExponentProfile
    rho_ref: float

    def __post_init__(self):
        n1, m1 = self.h11.shape
        n2, m2 = self.h22.shape
        if self.h12.shape != (n2, m1) or self.h21.shape != (n1, m2):
            raise ValueError(
                f"inconsistent link shapes: h11 {self.h11.shape}, "
                f"h12 {self.h12.shape}, h21 {self.h21.shape}, h22 {self.h22.shape}"
            )
        if self.rho_ref <= 0:
            raise ValueError(f"rho_ref={self.rho_ref} must be positive")

    @property
    def antennas(self) -> AntennaProfile:
        return AntennaProfile(
            self.h11.shape[1], self.h11.shape[0],
            self.h22.shape[1], self.h22.shape[0],
        )

    def cross_link(self, user: int) -> Tuple[np.ndarray, float]:
        """The interfering matrix H_ij and its INR rho^a_ij for user i."""
        if user == 1:
            return self.h12, self.rho_ref ** float(self.exp.a12)
        if user == 2:
            return self.h21, self.rho_ref ** float(self.exp.a21)
        raise ValueError(f"user must be 1 or 2, got {user}")


@dataclass(frozen=True)
class CovariancePair:
    """Private (k_u) and public (k_w) input covariances, summing to I/M."""

    k_u: np.ndarray
    k_w: np.ndarray


@dataclass(frozen=True)
class Stream:
    """One transmit stream: unit direction, amplitude weight, and class."""

    direction: np.ndarray
    weight: float
    kind: str  # "public" | "private_below_noise" | "private_nullspace"


@dataclass(frozen=True)
class DofSplit:
    d1c: Fraction
    d1p: Fraction
    d2c: Fraction
    d2p: Fraction

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.d1c, self.d1p, self.d2c, self.d2p)


def covariances(inst: ChannelInstance, user: int) -> CovariancePair:
    """Private/public covariance split for the given user.

    k_u = (1/M) (I + rho_ij H_ij^H H_ij)^-1 keeps the private signal at or
    below the unintended receiver's noise floor; k_w is the remainder of the
    white power budget I/M.
    """
    h, rho_cross = inst.cross_link(user)
    m = h.shape[1]
    gram = np.eye(m, dtype=complex) + rho_cross * (h.conj().T @ h)
    k_u = np.linalg.inv(gram) / m
    k_w = np.eye(m) / m - k_u
    return CovariancePair(k_u, k_w)


def stream_decomposition(inst: ChannelInstance, user: int) -> List[Stream]:
    """Decompose the user's transmit signal into per-direction streams.

    Along each right singular vector of the cross link with eigenvalue
    lam_k, the private stream carries weight sqrt(1/G_k) with
    G_k = M (1 + rho_ij lam_k) and the public stream the remainder of the
    per-direction budget, sqrt(1/M - 1/G_k); the M - min(M, N_j) null-space
    directions are fully private at weight 1/sqrt(M).
    """
    h, rho_cross = inst.cross_link(user)
    nj, m = h.shape
    m_cross = min(m, nj)

    _, s, vh = np.linalg.svd(h, full_matrices=True)
    if s[m_cross - 1] <= 0 or s[0] / s[m_cross - 1] > COND_THRESHOLD:
        raise RankDeficientChannel(
            f"cross link of user {user} has condition number above "
            f"{COND_THRESHOLD:g}"
        )
    directions = vh.conj().T  # columns are right singular vectors, all M of them

    streams: List[Stream] = []
    for k in range(m_cross):
        lam = s[k] ** 2
        big_g = m * (1.0 + rho_cross * lam)
        streams.append(Stream(directions[:, k], np.sqrt(1.0 / m - 1.0 / big_g),
                              "public"))
    for k in range(m_cross):
        lam = s[k] ** 2
        big_g = m * (1.0 + rho_cross * lam)
        streams.append(Stream(directions[:, k], np.sqrt(1.0 / big_g),
                              "private_below_noise"))
    for k in range(m_cross, m):
        streams.append(Stream(directions[:, k], 1.0 / np.sqrt(m),
                              "private_nullspace"))
    return streams


def reconstructed_covariances(streams: List[Stream]) -> CovariancePair:
    """Sum the per-stream rank-one covariances back into (k_u, k_w)."""
    m = streams[0].direction.shape[0]
    k_u = np.zeros((m, m), dtype=complex)
    k_w = np.zeros((m, m), dtype=complex)
    for st in streams:
        outer = st.weight ** 2 * np.outer(st.direction, st.direction.conj())
        if st.kind == "public":
            k_w += outer
        else:
            k_u += outer
    return CovariancePair(k_u, k_w)


# -- exact split solver -------------------------------------------------------

Constraint = Tuple[Fraction, Fraction, Fraction, str]  # a*x + b*y <= c


def split_constraints(
    ant: AntennaProfile, exp: ExponentProfile, point: Point
) -> List[Constraint]:
    """Linear constraints on (x, y) = (d1p, d2p) for the target point.

    In base-rho units (user-i quantities scaled by a_ii), with the public
    parts d_ic = d_i - d_ip:
      C1: private power budget of each user;
      C2: each receiver decodes the interferer's public part as a MAC user;
      C3: each user's GDoF fits its single-user link, d_i <= min(M_i, N_i);
      C4: own private plus interfering public share the receive space.
    (The joint bound with roles swapped coincides with C2 of the other user.)
    """
    m1, n1, m2, n2 = ant.as_tuple()
    a11, a12, a21, a22 = exp.as_tuple()
    d1, d2 = exact_point(point)
    mac_rx2, mac_rx1, priv1, priv2, mix1, mix2 = channel_terms(ant, exp)

    one = Fraction(1)
    return [
        (-one, ZERO, ZERO, "d1p >= 0"),
        (ZERO, -one, ZERO, "d2p >= 0"),
        (one, ZERO, d1, "d1p <= d1"),
        (ZERO, one, d2, "d2p <= d2"),
        (a11, ZERO, priv1, "C1 user 1"),
        (ZERO, a22, priv2, "C1 user 2"),
        (-a11, ZERO, mac_rx2 - a11 * d1 - a22 * d2, "C2 at Rx2"),
        (ZERO, -a22, mac_rx1 - a11 * d1 - a22 * d2, "C2 at Rx1"),
        (ZERO, ZERO, min(m1, n1) - d1, "C3 user 1"),
        (ZERO, ZERO, min(m2, n2) - d2, "C3 user 2"),
        (a11, -a22, mix1 - a22 * d2, "C4 at Rx1"),
        (-a11, a22, mix2 - a11 * d1, "C4 at Rx2"),
    ]


def split_solver(
    ant: AntennaProfile, exp: ExponentProfile, point: Point
) -> DofSplit:
    """Find a private/public GDoF split achieving the given region point.

    Returns the split with maximal total private GDoF, which is unique, or
    raises SplitInfeasible listing the rows of split_constraints; its C3
    rows d_i <= min(M_i, N_i) make that happen exactly outside the region.
    With x = d1p, Y = a22*d2p and L = d1 + a22*d2 (a11 = 1):
    x in [max(0, L - mac_rx2), min(d1, priv1)],
    Y in [max(0, L - mac_rx1), min(a22*d2, priv2)] and
    d1 - mix2 <= x - Y <= mix1 - a22*d2.  The best x for a given Y is
    min(x_hi, hi + Y), so x + Y/a22 grows strictly in Y: Y* is the largest
    feasible Y (0 when a22 = 0, where d2p = d2).  All in integers over one
    common denominator.
    """
    d1, d2 = exact_point(point)
    if d1 < 0 or d2 < 0:
        raise ValueError(f"point {point} must be nonnegative")
    a22 = exp.a22
    terms = channel_terms(ant, exp)
    den = math.lcm(d1.denominator, d2.denominator * a22.denominator,
                   *(t.denominator for t in terms))
    mac_rx2, mac_rx1, priv1, priv2, mix1, mix2 = (
        t.numerator * (den // t.denominator) for t in terms)
    x1 = d1.numerator * (den // d1.denominator)
    w2 = a22.numerator * d2.numerator * (
        den // (a22.denominator * d2.denominator))  # a22*d2
    load = x1 + w2

    x_lo, x_hi = max(0, load - mac_rx2), min(x1, priv1)
    y_lo, y_hi = max(0, load - mac_rx1), min(w2, priv2)
    lo, hi = x1 - mix2, mix1 - w2
    y = min(y_hi, x_hi - lo)  # Y*, scaled by den
    if (d1 > min(ant.m1, ant.n1) or d2 > min(ant.m2, ant.n2)
            or x_lo > x_hi or lo > hi or y < y_lo or y < x_lo - hi):
        described = [
            (name, f"{a}*d1p + {b}*d2p <= {c}")
            for a, b, c, name in split_constraints(ant, exp, (d1, d2))
        ]
        raise SplitInfeasible((d1, d2), described)
    x = min(x_hi, hi + y)
    d2p = d2 if a22 == 0 else Fraction(y * a22.denominator,
                                       den * a22.numerator)
    return DofSplit(Fraction(x1 - x, den), Fraction(x, den), d2 - d2p, d2p)


def sample_instance(
    ant: AntennaProfile,
    exp: ExponentProfile,
    rho_ref: float,
    seed: int,
) -> ChannelInstance:
    """Draw one channel realization with i.i.d. CN(0,1) entries."""
    from .finite_snr import sample_channel

    return ChannelInstance(
        h11=sample_channel(ant.n1, ant.m1, (seed, 11)),
        h12=sample_channel(ant.n2, ant.m1, (seed, 12)),
        h21=sample_channel(ant.n1, ant.m2, (seed, 21)),
        h22=sample_channel(ant.n2, ant.m2, (seed, 22)),
        exp=exp,
        rho_ref=rho_ref,
    )
