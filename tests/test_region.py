import itertools
import random
from fractions import Fraction as F

import pytest

from gdofic.closed_forms import dof_region, siso_w_curve
from gdofic.core_math import f, g
from gdofic.region import (
    AntennaProfile,
    ExponentProfile,
    channel_terms,
    contains,
    reciprocal,
    region_of,
    regions_equal,
    sweep_alpha,
    symmetric_gdof,
    region_bounds,
)

from conftest import frac_grid, polygon_contains

ALPHA_GRID = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4),
              F(1), F(4, 3), F(3, 2), F(2)]


def bound(kinds, kind):
    return next(b for b in kinds if b.kind == kind)


class TestProfiles:
    def test_antenna_validation(self):
        with pytest.raises(ValueError):
            AntennaProfile(0, 1, 1, 1)
        with pytest.raises(ValueError):
            AntennaProfile(1, 1, -2, 1)

    def test_exponent_normalization_enforced(self):
        with pytest.raises(ValueError, match="rescale|divide"):
            ExponentProfile(F(2), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            ExponentProfile(F(1), F(-1, 2), F(1), F(1))

    def test_symmetric_template(self):
        e = ExponentProfile.symmetric("2/3")
        assert e.as_tuple() == (F(1), F(2, 3), F(2, 3), F(1))


class TestChannelTerms:
    def test_matches_direct_allocation(self):
        ant = AntennaProfile(3, 1, 2, 2)
        exp = ExponentProfile(F(1), F(1, 3), F(3, 2), F(3, 4))
        # beta12 = 2/3, beta21 = 0, m12 = 2, m21 = 1, e1 = 1, e2 = 1
        assert channel_terms(ant, exp) == (
            f(2, (F(1, 3), 3), (F(3, 4), 2)),
            f(1, (F(3, 2), 2), (F(1), 3)),
            f(1, (F(2, 3), 2), (F(1), 1)),
            f(2, (F(0), 1), (F(3, 4), 1)),
            g(1, (F(3, 2), 2), (F(2, 3), 2), (F(1), 1)),
            g(2, (F(1, 3), 3), (F(0), 1), (F(3, 4), 1)),
        )

    def test_bounds_read_the_terms(self):
        ant = AntennaProfile(2, 3, 4, 2)
        exp = ExponentProfile(F(1), F(1, 3), F(1, 2), F(3, 4))
        mac_rx2, mac_rx1, priv1, priv2, mix1, mix2 = channel_terms(ant, exp)
        rhs = {b.kind: b.rhs for b in region_bounds(ant, exp)}
        assert rhs["D3"] == mac_rx2 + priv1
        assert rhs["D4"] == mac_rx1 + priv2
        assert rhs["D5"] == mix1 + mix2
        assert rhs["D6"] == mac_rx1 + priv1 + mix2
        assert rhs["D7"] == mac_rx2 + priv2 + mix1

    def test_cache_is_bounded(self):
        assert channel_terms.cache_info().maxsize == 1024


class TestRegionBounds:
    def test_siso_half_d5(self):
        bounds = region_bounds(AntennaProfile(1, 1, 1, 1),
                                ExponentProfile.symmetric(F(1, 2)))
        assert bound(bounds, "D5").rhs == 1

    def test_3322_d7(self):
        bounds = region_bounds(AntennaProfile(3, 3, 2, 2),
                                ExponentProfile.symmetric(F(2, 3)))
        d7 = bound(bounds, "D7")
        assert d7.rhs == 5
        assert (d7.c1, d7.c2) == (1, 2)

    def test_2211_allones_d3(self):
        bounds = region_bounds(AntennaProfile(2, 2, 1, 1),
                                ExponentProfile.symmetric(F(1)))
        assert bound(bounds, "D3").rhs == 2

    def test_coefficient_pattern(self):
        exp = ExponentProfile(F(1), F(1, 3), F(1, 2), F(3, 4))
        bounds = region_bounds(AntennaProfile(2, 3, 4, 2), exp)
        coeffs = {b.kind: (b.c1, b.c2) for b in bounds}
        assert coeffs["D1"] == (1, 0)
        assert coeffs["D2"] == (0, 1)
        for k in ("D3", "D4", "D5"):
            assert coeffs[k] == (1, F(3, 4))
        assert coeffs["D6"] == (2, F(3, 4))
        assert coeffs["D7"] == (1, F(3, 2))
        assert all(b.rhs >= 0 for b in bounds)


class TestBuildRegion:
    def test_siso_triangle(self):
        r = region_of(AntennaProfile(1, 1, 1, 1), ExponentProfile.symmetric(F(1, 2)))
        assert set(r.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}

    def test_3322_vertex_b(self):
        r = region_of(AntennaProfile(3, 3, 2, 2), ExponentProfile.symmetric(F(2, 3)))
        assert (F(1), F(2)) in r.vertices

    def test_no_interference_rectangle(self):
        ant = AntennaProfile(2, 3, 3, 2)
        r = region_of(ant, ExponentProfile(F(1), F(0), F(0), F(1, 2)))
        assert set(r.vertices) == {
            (F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2))
        }

    def test_vertices_ccw_from_origin(self):
        r = region_of(AntennaProfile(3, 3, 2, 2), ExponentProfile.symmetric(F(2, 3)))
        assert r.vertices[0] == (F(0), F(0))
        v = r.vertices
        for i in range(len(v)):
            ax, ay = v[i]
            bx, by = v[(i + 1) % len(v)]
            cx, cy = v[(i + 2) % len(v)]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            assert cross > 0

    def test_every_vertex_satisfies_every_bound(self):
        rnd = random.Random(7)
        for _ in range(25):
            ant = AntennaProfile(*(rnd.randint(1, 4) for _ in range(4)))
            exp = ExponentProfile(F(1), rnd.choice(ALPHA_GRID),
                                  rnd.choice(ALPHA_GRID), rnd.choice(ALPHA_GRID))
            r = region_of(ant, exp)
            for v in r.vertices:
                assert v[0] >= 0 and v[1] >= 0
                assert all(b.holds_at(v) for b in r.bounds)
            # every bound is redundant or tight at some vertex
            for b in r.bounds:
                slacks = [b.slack_at(v) for v in r.vertices]
                assert min(slacks) >= 0

    def test_at_most_nine_vertices(self):
        rnd = random.Random(3)
        for _ in range(40):
            ant = AntennaProfile(*(rnd.randint(1, 4) for _ in range(4)))
            exp = ExponentProfile(F(1), rnd.choice(ALPHA_GRID),
                                  rnd.choice(ALPHA_GRID), rnd.choice(ALPHA_GRID))
            assert len(region_of(ant, exp).vertices) <= 9

    def test_degenerate_vertical_bounds_alpha22_zero(self):
        ant = AntennaProfile(2, 2, 2, 2)
        r = region_of(ant, ExponentProfile(F(1), F(1, 2), F(1, 2), F(0)))
        assert contains(r, (F(0), F(2)))
        assert all(b.holds_at(v) for b in r.bounds for v in r.vertices)


class TestContains:
    def test_known_boundary_vertex_inside(self):
        r = region_of(AntennaProfile(3, 3, 2, 2), ExponentProfile.symmetric(F(2, 3)))
        assert contains(r, (F(1), F(2)))
        assert contains(r, (F(0), F(0)))
        assert not contains(r, (F(11, 10), F(2)))
        assert not contains(r, (F(-1, 8), F(0)))

    def test_hull_matches_inequalities_on_grid(self):
        # vertex hull admits exactly the 1/8-grid points the bounds admit
        for ant, exp in [
            (AntennaProfile(3, 3, 2, 2), ExponentProfile.symmetric(F(2, 3))),
            (AntennaProfile(2, 1, 1, 2), ExponentProfile(F(1), F(1, 3), F(3, 4), F(1, 2))),
            (AntennaProfile(1, 2, 2, 1), ExponentProfile.symmetric(F(3, 2))),
        ]:
            r = region_of(ant, exp)
            for x in frac_grid(F(0), F(min(ant.m1, ant.n1)), F(1, 8)):
                for y in frac_grid(F(0), F(min(ant.m2, ant.n2)), F(1, 8)):
                    direct = all(b.holds_at((x, y)) for b in r.bounds)
                    assert contains(r, (x, y)) == direct
                    assert polygon_contains(r.vertices, (x, y)) == direct


    @staticmethod
    def _direct(r, p):
        return p[0] >= 0 and p[1] >= 0 and all(b.holds_at(p) for b in r.bounds)

    @pytest.mark.parametrize("ant,exp", [
        ((3, 3, 2, 2), (1, "2/3", "2/3", 1)),
        ((2, 1, 1, 2), (1, "1/3", "3/4", "1/2")),
        ((2, 2, 2, 2), (1, "1/2", "1/2", 0)),
        ((1, 2, 3, 1), (1, "5/3", "1/4", "7/5")),
    ])
    def test_integer_rows_agree_on_every_bound_line(self, ant, exp):
        r = region_of(AntennaProfile(*ant), ExponentProfile(*exp))
        points = []
        for b in r.bounds:
            for t in frac_grid(F(-1), F(3), F(1, 7)):
                if b.c2 != 0:
                    p = (t, (b.rhs - b.c1 * t) / b.c2)
                else:
                    p = (b.rhs / b.c1, t)
                assert b.slack_at(p) == 0
                points.append(p)
        points += [(x, -y) for x, y in points] + list(r.vertices)
        for p in points:
            assert contains(r, p) == self._direct(r, p), p
            assert contains(r, (str(p[0]), str(p[1]))) == self._direct(r, p)
        for p in itertools.product(range(-1, 4), repeat=2):
            assert contains(r, p) == self._direct(r, (F(p[0]), F(p[1])))

    def test_rejects_floats(self):
        r = region_of(AntennaProfile(1, 1, 1, 1), ExponentProfile.symmetric(F(1, 2)))
        with pytest.raises(TypeError):
            contains(r, (0.5, F(0)))
        with pytest.raises(TypeError):
            contains(r, (F(0), 0.25))


class TestSymmetricGdof:
    @pytest.mark.parametrize("ant,alpha,expected", [
        ((1, 1, 1, 1), F(2, 3), F(2, 3)),
        ((3, 2, 3, 2), F(1, 4), F(7, 4)),
        ((1, 1, 2, 1), F(1, 2), F(3, 4)),
    ])
    def test_examples(self, ant, alpha, expected):
        assert symmetric_gdof(AntennaProfile(*ant),
                              ExponentProfile.symmetric(alpha)) == expected

    def test_matches_region_boundary(self):
        ant = AntennaProfile(3, 2, 2, 3)
        exp = ExponentProfile.symmetric(F(1, 2))
        d = symmetric_gdof(ant, exp)
        r = region_of(ant, exp)
        assert contains(r, (d, d))
        assert not contains(r, (d + F(1, 1000), d + F(1, 1000)))


class TestReciprocity:
    def test_mapping(self):
        ant, exp = reciprocal(AntennaProfile(3, 2, 3, 2),
                              ExponentProfile.symmetric(F(2, 3)))
        assert ant.as_tuple() == (2, 3, 2, 3)
        assert exp.as_tuple() == (F(1), F(2, 3), F(2, 3), F(1))

    def test_asymmetric_mapping(self):
        ant, exp = reciprocal(
            AntennaProfile(1, 1, 2, 1),
            ExponentProfile(F(1), F(1, 3), F(3, 4), F(1)),
        )
        assert ant.as_tuple() == (1, 1, 1, 2)
        assert exp.as_tuple() == (F(1), F(3, 4), F(1, 3), F(1))

    def test_involution(self):
        ant = AntennaProfile(2, 3, 1, 4)
        exp = ExponentProfile(F(1), F(1, 3), F(3, 4), F(5, 6))
        assert reciprocal(*reciprocal(ant, exp)) == (ant, exp)

    def test_regions_equal_instance(self):
        ant = AntennaProfile(2, 3, 1, 2)
        exp = ExponentProfile(F(1), F(1, 3), F(3, 4), F(5, 6))
        assert regions_equal(region_of(ant, exp), region_of(*reciprocal(ant, exp)))

    def test_regions_differ_across_alpha(self):
        r1 = region_of(AntennaProfile(1, 1, 1, 1), ExponentProfile.symmetric(F(1, 4)))
        r2 = region_of(AntennaProfile(1, 1, 1, 1), ExponentProfile.symmetric(F(3, 4)))
        assert not regions_equal(r1, r2)

    def test_random_profiles(self):
        rnd = random.Random(20240817)
        for _ in range(200):
            ant = AntennaProfile(*(rnd.randint(1, 4) for _ in range(4)))
            exp = ExponentProfile(F(1), rnd.choice(ALPHA_GRID),
                                  rnd.choice(ALPHA_GRID), rnd.choice(ALPHA_GRID))
            assert regions_equal(region_of(ant, exp),
                                 region_of(*reciprocal(ant, exp)))


class TestRecovery:
    def test_dof_region_recovered_at_all_ones(self):
        ones = ExponentProfile.symmetric(F(1))
        for t in itertools.product(range(1, 5), repeat=4):
            ant = AntennaProfile(*t)
            assert regions_equal(region_of(ant, ones), dof_region(ant))

    def test_siso_symmetric_point_recovers_w_curve(self):
        ant = AntennaProfile(1, 1, 1, 1)
        for a in ALPHA_GRID:
            assert symmetric_gdof(ant, ExponentProfile.symmetric(a)) == siso_w_curve(a)

    def test_siso_region_shapes(self):
        ant = AntennaProfile(1, 1, 1, 1)
        square = {(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))}
        tri = {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
        assert set(region_of(ant, ExponentProfile.symmetric(F(0))).vertices) == square
        assert set(region_of(ant, ExponentProfile.symmetric(F(1, 2))).vertices) == tri
        assert set(region_of(ant, ExponentProfile.symmetric(F(1))).vertices) == tri


class TestSweep:
    def test_siso_values(self):
        res = sweep_alpha(AntennaProfile(1, 1, 1, 1),
                          [F(0), F(1, 2), F(2, 3), F(1), F(2)])
        assert [p.d_sym for p in res.points] == [F(1), F(1, 2), F(2, 3), F(1, 2), F(1)]

    def test_2121_constant(self):
        res = sweep_alpha(AntennaProfile(2, 1, 2, 1), frac_grid(F(0), F(3), F(1, 12)))
        assert all(p.d_sym == 1 for p in res.points)
        assert res.breakpoints == ()

    def test_single_user_gdof_beyond_alpha_star(self):
        # (M,N,M,N) with M > N reaches N at and beyond 3 - M/N
        for m, n in [(3, 2), (4, 3)]:
            astar = 3 - F(m, n)
            res = sweep_alpha(AntennaProfile(m, n, m, n), frac_grid(F(0), F(3), F(1, 12)))
            for p in res.points:
                if p.alpha >= astar:
                    assert p.d_sym == n

    def test_piecewise_linear_between_breakpoints(self):
        ant = AntennaProfile(3, 2, 3, 2)
        coarse = sweep_alpha(ant, frac_grid(F(0), F(3), F(1, 12)))
        knots = [F(0)] + list(coarse.breakpoints) + [F(3)]
        for lo, hi in zip(knots, knots[1:]):
            vlo = symmetric_gdof(ant, ExponentProfile.symmetric(lo))
            vhi = symmetric_gdof(ant, ExponentProfile.symmetric(hi))
            slope = (vhi - vlo) / (hi - lo)
            for a in frac_grid(lo, hi, (hi - lo) / 7):
                v = symmetric_gdof(ant, ExponentProfile.symmetric(a))
                assert v == vlo + slope * (a - lo)

    def test_empty_grid(self):
        assert sweep_alpha(AntennaProfile(1, 1, 1, 1), []).points == ()

    def test_custom_template(self):
        # one-sided interference: only the cross link into Rx1 scales
        res = sweep_alpha(
            AntennaProfile(1, 1, 1, 1),
            [F(0), F(1, 2), F(1)],
            template=lambda a: ExponentProfile(F(1), F(0), a, F(1)),
        )
        assert all(p.d_sym > 0 for p in res.points)
