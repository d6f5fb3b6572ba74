from fractions import Fraction as F
from itertools import product
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdofic.hk_scheme import (
    ChannelInstance,
    SplitInfeasible,
    covariances,
    reconstructed_covariances,
    sample_instance,
    split_constraints,
    split_solver,
    stream_decomposition,
)
from gdofic.region import AntennaProfile, ExponentProfile, contains, region_of

from conftest import frac_grid


def make_instance(ant, alpha=F(2, 3), rho_ref=1e8, seed=0):
    return sample_instance(ant, ExponentProfile.symmetric(alpha), rho_ref, seed)


class TestChannelInstance:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            ChannelInstance(
                h11=np.ones((2, 2)), h12=np.ones((3, 2)),
                h21=np.ones((2, 2)), h22=np.ones((2, 2)),
                exp=ExponentProfile.symmetric(F(1, 2)), rho_ref=100.0,
            )

    def test_antennas_derived_from_shapes(self):
        inst = make_instance(AntennaProfile(3, 2, 1, 4))
        assert inst.antennas.as_tuple() == (3, 2, 1, 4)


class TestCovariances:
    def test_matches_defining_formula(self):
        inst = sample_instance(AntennaProfile(2, 2, 2, 2),
                               ExponentProfile(F(1), F(1, 2), F(0), F(1)),
                               rho_ref=1e8, seed=1)
        cp = covariances(inst, 1)
        m = 2
        rho12 = 1e8 ** 0.5
        gram = np.eye(m) + rho12 * inst.h12.conj().T @ inst.h12
        assert np.allclose(cp.k_u, np.linalg.inv(gram) / m, atol=1e-12)
        # user 2 sees a zero cross exponent: INR is rho^0 = 1, not absent,
        # so only an O(1) public share is carved out of the budget
        cp2 = covariances(inst, 2)
        assert np.linalg.norm(cp2.k_w, 2) <= 1.0

    def test_sum_identity_and_psd(self):
        for seed in range(20):
            inst = make_instance(AntennaProfile(3, 2, 2, 3), seed=seed)
            for user in (1, 2):
                cp = covariances(inst, user)
                m = cp.k_u.shape[0]
                target = np.eye(m) / m
                assert np.linalg.norm(cp.k_u + cp.k_w - target) <= \
                    1e-12 * np.linalg.norm(target)
                assert np.linalg.eigvalsh(cp.k_u).min() >= -1e-12
                assert np.linalg.eigvalsh(cp.k_w).min() >= -1e-12

    def test_private_power_at_noise_floor(self):
        # received private covariance never exceeds 1/M in spectral norm
        for seed in range(20):
            inst = make_instance(AntennaProfile(3, 2, 2, 1), seed=seed)
            for user in (1, 2):
                cp = covariances(inst, user)
                h, rho_cross = inst.cross_link(user)
                m = cp.k_u.shape[0]
                received = rho_cross * h @ cp.k_u @ h.conj().T
                assert np.linalg.norm(received, 2) <= 1 / m + 1e-9

    def test_scalar_strong_cross_link(self):
        h = np.array([[1.0 + 0j]])
        inst = ChannelInstance(h, h, h, h,
                               ExponentProfile.symmetric(F(3, 4)), rho_ref=1e8)
        cp = covariances(inst, 1)
        rho12 = 1e8 ** 0.75
        assert cp.k_u[0, 0].real == pytest.approx(1 / (1 + rho12), rel=1e-12)
        assert rho12 * abs(cp.k_u[0, 0]) < 1.0


class TestStreamDecomposition:
    def test_example_counts(self):
        # M1 = 3 transmit antennas facing a 2-antenna victim receiver
        inst = make_instance(AntennaProfile(3, 2, 2, 2))
        streams = stream_decomposition(inst, 1)
        kinds = [s.kind for s in streams]
        assert kinds.count("public") == 2
        assert kinds.count("private_below_noise") == 2
        assert kinds.count("private_nullspace") == 1

    def test_no_nullspace_when_m_le_nj(self):
        inst = make_instance(AntennaProfile(2, 2, 2, 3))
        kinds = [s.kind for s in stream_decomposition(inst, 1)]
        assert kinds.count("private_nullspace") == 0

    def test_reconstruction_matches_covariances(self):
        for seed in range(10):
            inst = make_instance(AntennaProfile(3, 1, 2, 2), seed=seed)
            for user in (1, 2):
                cp = covariances(inst, user)
                rc = reconstructed_covariances(stream_decomposition(inst, user))
                scale = max(np.linalg.norm(cp.k_u), np.linalg.norm(cp.k_w))
                assert np.linalg.norm(rc.k_u - cp.k_u) <= 1e-10 * scale
                assert np.linalg.norm(rc.k_w - cp.k_w) <= 1e-10 * scale

    def test_total_covariance_is_white(self):
        inst = make_instance(AntennaProfile(3, 2, 2, 2), seed=4)
        rc = reconstructed_covariances(stream_decomposition(inst, 1))
        assert np.allclose(rc.k_u + rc.k_w, np.eye(3) / 3, atol=1e-12)

    def test_nullspace_streams_invisible_at_victim(self):
        inst = make_instance(AntennaProfile(3, 2, 2, 2), seed=5)
        h12 = inst.h12
        for s in stream_decomposition(inst, 1):
            if s.kind == "private_nullspace":
                assert np.linalg.norm(h12 @ s.direction) <= 1e-10


class TestSplitSolver:
    def test_known_vertex_split(self):
        ant = AntennaProfile(3, 3, 2, 2)
        exp = ExponentProfile.symmetric(F(2, 3))
        split = split_solver(ant, exp, (F(1), F(2)))
        assert split.as_tuple() == (F(0), F(1), F(4, 3), F(2, 3))

    def test_no_interference_all_private(self):
        ant = AntennaProfile(2, 2, 2, 2)
        exp = ExponentProfile(F(1), F(0), F(0), F(1))
        split = split_solver(ant, exp, (F(3, 2), F(2)))
        assert split.as_tuple() == (F(0), F(3, 2), F(0), F(2))

    def test_origin(self):
        split = split_solver(AntennaProfile(1, 1, 1, 1),
                             ExponentProfile.symmetric(F(1, 2)), (F(0), F(0)))
        assert split.as_tuple() == (F(0), F(0), F(0), F(0))

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            split_solver(AntennaProfile(1, 1, 1, 1),
                         ExponentProfile.symmetric(F(1, 2)), (F(-1), F(0)))

    def test_infeasible_reports_constraints(self):
        # far outside the region: the public MAC caps cannot absorb it
        with pytest.raises(SplitInfeasible, match="C2"):
            split_solver(AntennaProfile(1, 1, 1, 1),
                         ExponentProfile.symmetric(F(1, 2)), (F(5), F(5)))

    def test_soundness_on_vertices_and_grid(self):
        cases = [
            (AntennaProfile(3, 3, 2, 2), F(2, 3)),
            (AntennaProfile(2, 1, 1, 2), F(1, 2)),
            (AntennaProfile(1, 2, 2, 1), F(1, 4)),
            (AntennaProfile(3, 2, 3, 2), F(1)),
        ]
        for ant, a in cases:
            exp = ExponentProfile.symmetric(a)
            r = region_of(ant, exp)
            points = set(r.vertices)
            for x in frac_grid(F(0), F(min(ant.m1, ant.n1)), F(1, 4)):
                for y in frac_grid(F(0), F(min(ant.m2, ant.n2)), F(1, 4)):
                    if contains(r, (x, y)):
                        points.add((x, y))
            for p in points:
                s = split_solver(ant, exp, p)
                assert s.d1c + s.d1p == p[0]
                assert s.d2c + s.d2p == p[1]
                assert min(s.as_tuple()) >= 0
                for ca, cb, cc, name in split_constraints(ant, exp, p):
                    assert ca * s.d1p + cb * s.d2p <= cc, (ant, a, p, name)

    def test_prefers_maximal_private(self):
        # with no interference, the all-private split must be selected
        ant = AntennaProfile(1, 1, 1, 1)
        exp = ExponentProfile(F(1), F(0), F(0), F(1))
        s = split_solver(ant, exp, (F(1, 2), F(1, 2)))
        assert s.d1p == F(1, 2) and s.d2p == F(1, 2)


# -- differential and converse checks of the closed-form split solver ---------

def _solve_box_slab(cons) -> Optional[Tuple[F, F]]:
    """Reference solver: maximize x + y (then x) over the constraint polygon
    by enumerating candidate vertices.

    Axis-aligned constraints are folded into a box; the only remaining
    normals are +-(a11, -a22), a pair of parallel slab lines, so candidate
    optima are box corners plus slab-line / box-edge intersections.
    """
    xlo, xhi = None, None
    ylo, yhi = None, None
    diagonals: List = []
    for a, b, c, name in cons:
        if a == 0 and b == 0:
            if c < 0:
                return None
        elif b == 0:
            bound = c / a
            if a > 0:
                xhi = bound if xhi is None else min(xhi, bound)
            else:
                xlo = bound if xlo is None else max(xlo, bound)
        elif a == 0:
            bound = c / b
            if b > 0:
                yhi = bound if yhi is None else min(yhi, bound)
            else:
                ylo = bound if ylo is None else max(ylo, bound)
        else:
            diagonals.append((a, b, c, name))

    assert None not in (xlo, xhi, ylo, yhi)
    if xlo > xhi or ylo > yhi:
        return None

    candidates = [(xlo, ylo), (xlo, yhi), (xhi, ylo), (xhi, yhi)]
    for a, b, c, _ in diagonals:
        for x in (xlo, xhi):
            candidates.append((x, (c - a * x) / b))
        for y in (ylo, yhi):
            candidates.append(((c - b * y) / a, y))

    best = None
    for x, y in candidates:
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            continue
        if any(a * x + b * y > c for a, b, c, _ in diagonals):
            continue
        if best is None or (x + y, x) > (best[0] + best[1], best[0]):
            best = (x, y)
    return best


def _reference_split(ant, exp, point) -> Optional[Tuple[F, F, F, F]]:
    best = _solve_box_slab(split_constraints(ant, exp, point))
    if best is None:
        return None
    return (point[0] - best[0], best[0], point[1] - best[1], best[1])


def _split_or_none(ant, exp, point) -> Optional[Tuple[F, F, F, F]]:
    try:
        return split_solver(ant, exp, point).as_tuple()
    except SplitInfeasible:
        return None


A12 = [F(0), F(1, 2), F(1), F(2)]
A21 = [F(1, 4), F(2, 3), F(3, 2)]
A22 = [F(0), F(1, 4), F(2, 3), F(1), F(3, 2), F(2)]
CROSS_PAIRS = list(product(A12, A21))  # a12 != a21 in every pair


@pytest.fixture(scope="module")
def split_corpus():
    """Every antenna profile 1..3 with every a22 in A22; the (a12, a21) pair
    rotates so that each (pair, a22) combination occurs for several
    profiles.  Entries are (antennas, exponents, region)."""
    corpus = []
    for i, counts in enumerate(product(range(1, 4), repeat=4)):
        ant = AntennaProfile(*counts)
        for j, a22 in enumerate(A22):
            a12, a21 = CROSS_PAIRS[(5 * i + j) % len(CROSS_PAIRS)]
            exp = ExponentProfile(F(1), a12, a21, a22)
            corpus.append((ant, exp, region_of(ant, exp)))
    return corpus


class TestClosedFormSplit:
    def test_matches_candidate_enumeration(self, split_corpus):
        grid = [F(3 * k, 4) for k in range(5)]  # 0..3, inside and outside
        inside = outside = 0
        for ant, exp, r in split_corpus:
            for p in [(x, y) for x in grid for y in grid] + list(r.vertices):
                got = _split_or_none(ant, exp, p)
                assert got == _reference_split(ant, exp, p), (ant, exp, p)
                inside += got is not None
                outside += got is None
        assert inside > 1000 and outside > 1000

    def test_feasible_exactly_inside_region(self, split_corpus):
        grid = [F(3 * k, 8) for k in range(9)]
        for ant, exp, r in split_corpus:
            for p in product(grid, grid):
                feasible = _split_or_none(ant, exp, p) is not None
                assert feasible == contains(r, p), (ant, exp, p)

    def test_single_user_bound_is_enforced(self):
        # the point satisfies every row of the old constraint set but lies
        # above D2 = min(M2, N2) = 1
        ant = AntennaProfile(1, 1, 1, 1)
        exp = ExponentProfile(F(1), F(0), F(1, 4), F(0))
        point = (F(0), F(9, 8))
        assert not contains(region_of(ant, exp), point)
        with pytest.raises(SplitInfeasible, match="C3 user 2"):
            split_solver(ant, exp, point)

    def test_infeasible_message_lists_every_constraint(self):
        with pytest.raises(SplitInfeasible) as info:
            split_solver(AntennaProfile(1, 1, 1, 1),
                         ExponentProfile.symmetric(F(1, 2)), (F(5), F(5)))
        names = [name for name, _ in info.value.constraints]
        assert names == [c[3] for c in split_constraints(
            AntennaProfile(1, 1, 1, 1), ExponentProfile.symmetric(F(1, 2)),
            (F(5), F(5)))]
        assert "C3 user 1" in names and "C3 user 2" in names

    def test_accepts_int_and_str_points(self):
        ant = AntennaProfile(3, 3, 2, 2)
        exp = ExponentProfile.symmetric(F(2, 3))
        assert split_solver(ant, exp, (1, "2")).as_tuple() == \
            (F(0), F(1), F(4, 3), F(2, 3))
        with pytest.raises(TypeError):
            split_solver(ant, exp, (1.0, F(2)))


small_fracs = st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6]))


@settings(max_examples=300, deadline=None)
@given(
    counts=st.tuples(*[st.integers(1, 3)] * 4),
    alphas=st.tuples(small_fracs, small_fracs, small_fracs),
    point=st.tuples(small_fracs, small_fracs),
)
def test_closed_form_matches_enumeration_on_random_rationals(counts, alphas,
                                                             point):
    ant = AntennaProfile(*counts)
    exp = ExponentProfile(F(1), *alphas)
    assert _split_or_none(ant, exp, point) == _reference_split(ant, exp, point)
