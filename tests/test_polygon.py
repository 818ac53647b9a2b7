import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monogenity.errors import ValidationError
from monogenity.oracle import brute_hull, brute_phi_index
from monogenity.polygon import (
    NewtonPolygon,
    Side,
    ValuedPoint,
    index_lattice_points,
    lower_convex_hull,
    phi_index,
    principal_part,
    residual_polynomial,
    valued_points,
)
from monogenity.zpoly import PureFieldParams, phi_expansion, pure_polynomial

FIG1_VERTICES = [(0, 5), (1, 3), (5, 1), (9, 0)]
FIG2_POINTS_V4 = [(0, 4), (1, 3), (3, 2), (9, 1), (27, 0)]


def polygon_from_vertices(vertices):
    pts = [ValuedPoint(i, v) for i, v in vertices]
    return NewtonPolygon(tuple(Side.from_endpoints(a, b) for a, b in zip(pts, pts[1:])))


@st.composite
def principal_polygons(draw):
    """Chains of 1..4 sides of strictly increasing negative slope -h/e, each
    with degree 1..3, starting at x = 0..5 and ending at height 0..3."""
    slopes = draw(
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4)
    )
    fractions = sorted({Fraction(h, e) for h, e in slopes}, reverse=True)
    degrees = draw(st.lists(st.integers(1, 3), min_size=len(fractions), max_size=len(fractions)))
    x = draw(st.integers(0, 5))
    v = draw(st.integers(0, 3)) + sum(d * f.numerator for f, d in zip(fractions, degrees))
    vertices = [(x, v)]
    for f, d in zip(fractions, degrees):
        x += d * f.denominator
        v -= d * f.numerator
        vertices.append((x, v))
    return polygon_from_vertices(vertices)


class TestValuedPoints:
    def test_pure_161(self):
        f = pure_polynomial(PureFieldParams(3, 3, 161))
        exp = phi_expansion(f, (-161, 1))
        pts = set(valued_points(exp, 3))
        for expected in FIG2_POINTS_V4:
            assert ValuedPoint(*expected) in pts

    def test_q_divides_m(self):
        f = pure_polynomial(PureFieldParams(2, 2, 3))
        exp = phi_expansion(f, (0, 1))
        assert valued_points(exp, 3) == [ValuedPoint(0, 1), ValuedPoint(4, 0)]

    def test_x4_minus_17(self):
        f = pure_polynomial(PureFieldParams(2, 2, 17))
        exp = phi_expansion(f, (-1, 1))
        assert valued_points(exp, 2) == [
            ValuedPoint(0, 4),
            ValuedPoint(1, 2),
            ValuedPoint(2, 1),
            ValuedPoint(3, 2),
            ValuedPoint(4, 0),
        ]


class TestLowerConvexHull:
    def test_figure_2(self):
        f = pure_polynomial(PureFieldParams(3, 3, 161))
        exp = phi_expansion(f, (-161, 1))
        hull = lower_convex_hull(valued_points(exp, 3))
        assert [tuple(v) for v in hull.vertices] == FIG2_POINTS_V4

    def test_single_point(self):
        assert lower_convex_hull([ValuedPoint(3, 1)]).is_empty

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            lower_convex_hull([])

    def test_x4_minus_17_point_above(self):
        pts = [ValuedPoint(*t) for t in [(0, 4), (1, 2), (2, 1), (3, 2), (4, 0)]]
        hull = lower_convex_hull(pts)
        assert [tuple(v) for v in hull.vertices] == [(0, 4), (1, 2), (2, 1), (4, 0)]

    def test_collinear_merge(self):
        pts = [ValuedPoint(0, 4), ValuedPoint(1, 2), ValuedPoint(2, 0)]
        hull = lower_convex_hull(pts)
        assert len(hull.sides) == 1
        assert hull.sides[0].degree == 2

    def test_all_points_on_or_above(self):
        rng = random.Random(41)
        for _ in range(200):
            pts = [
                ValuedPoint(i, rng.randint(0, 30))
                for i in rng.sample(range(60), rng.randint(1, 25))
            ]
            hull = lower_convex_hull(pts)
            if hull.is_empty:
                continue
            lo, hi = hull.span
            for pt in pts:
                if lo <= pt.i <= hi:
                    side = hull.side_at(pt.i)
                    assert Fraction(pt.v) >= side.ordinate_at(pt.i)

    def test_matches_brute_hull(self):
        rng = random.Random(4242)
        for _ in range(300):
            pts = [
                ValuedPoint(i, rng.randint(0, 40))
                for i in rng.sample(range(80), rng.randint(1, 30))
            ]
            assert lower_convex_hull(pts).vertices == brute_hull(pts).vertices


class TestSide:
    def test_exact_slope_fields(self):
        side = Side.from_endpoints(ValuedPoint(1, 3), ValuedPoint(5, 1))
        assert side.slope == Fraction(-1, 2)
        assert (side.h, side.e) == (1, 2)
        assert side.length == 4
        assert side.height == 2
        assert side.degree == 2

    def test_lattice_points(self):
        side = Side.from_endpoints(ValuedPoint(3, 2), ValuedPoint(9, 1))
        assert side.lattice_points() == [ValuedPoint(3, 2), ValuedPoint(9, 1)]
        side = Side.from_endpoints(ValuedPoint(0, 2), ValuedPoint(4, 0))
        assert side.lattice_points() == [
            ValuedPoint(0, 2),
            ValuedPoint(2, 1),
            ValuedPoint(4, 0),
        ]

    def test_e_divides_length(self):
        rng = random.Random(7)
        for _ in range(300):
            x0 = rng.randint(0, 10)
            dx = rng.randint(1, 30)
            y0 = rng.randint(0, 30)
            y1 = rng.randint(0, 30)
            side = Side.from_endpoints(ValuedPoint(x0, y0), ValuedPoint(x0 + dx, y1))
            assert side.length % side.e == 0
            assert side.height * side.e == side.length * side.h


class TestPrincipalPart:
    def test_all_negative_kept(self):
        poly = polygon_from_vertices(FIG2_POINTS_V4)
        assert principal_part(poly) == poly

    def test_slope_zero_dropped(self):
        poly = polygon_from_vertices([(0, 2), (1, 0), (3, 0)])
        principal = principal_part(poly)
        assert [tuple(v) for v in principal.vertices] == [(0, 2), (1, 0)]

    def test_empty(self):
        assert principal_part(NewtonPolygon(())).is_empty


class TestPhiIndex:
    def test_figure_1(self):
        assert phi_index(polygon_from_vertices(FIG1_VERTICES), 1) == 9

    def test_figure_2_v4(self):
        assert phi_index(polygon_from_vertices(FIG2_POINTS_V4), 1) == 13

    def test_height_one_side(self):
        for n in (2, 4, 9, 27):
            assert phi_index(polygon_from_vertices([(0, 1), (n, 0)]), 1) == 0

    def test_deg_phi_multiplies(self):
        assert phi_index(polygon_from_vertices(FIG1_VERTICES), 3) == 27

    def test_rejects_non_principal(self):
        poly = polygon_from_vertices([(0, 2), (1, 0), (3, 0)])
        with pytest.raises(ValidationError):
            phi_index(poly, 1)

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(200):
            pts = [
                ValuedPoint(i, rng.randint(0, 25))
                for i in rng.sample(range(40), rng.randint(2, 20))
            ]
            principal = principal_part(lower_convex_hull(pts))
            assert phi_index(principal, 1) == brute_phi_index(principal)

    @settings(max_examples=300, deadline=None)
    @given(principal_polygons())
    @example(polygon_from_vertices([(2, 5), (3, 3), (7, 1), (11, 0)]))  # x >= 1, e > 1
    @example(polygon_from_vertices([(0, 6), (1, 3), (2, 1), (3, 0)]))  # integer slopes
    @example(polygon_from_vertices([(1, 4), (7, 0)]))  # one side, h = 2, e = 3, d = 2
    def test_matches_brute_force_on_principal_polygons(self, principal):
        index = phi_index(principal, 1)
        assert index == brute_phi_index(principal)
        assert len(index_lattice_points(principal)) == index
        assert phi_index(principal, 3) == 3 * index

    def test_rejects_points_outside_first_quadrant(self):
        for vertices in ([(0, 1), (2, -1)], [(-1, 2), (1, 0)]):
            with pytest.raises(ValidationError, match="x >= 0 and y >= 0"):
                phi_index(polygon_from_vertices(vertices), 1)

    def test_index_lattice_points_match_figure_1(self):
        points = index_lattice_points(polygon_from_vertices(FIG1_VERTICES))
        assert sorted(points) == [
            (1, 1), (1, 2), (1, 3),
            (2, 1), (2, 2),
            (3, 1), (3, 2),
            (4, 1),
            (5, 1),
        ]


class TestResidualPolynomial:
    def test_degree_one_side_linear(self):
        f = pure_polynomial(PureFieldParams(3, 3, 161))
        exp = phi_expansion(f, (-161, 1))
        hull = lower_convex_hull(valued_points(exp, 3))
        for side in principal_part(hull).sides:
            rp = residual_polynomial(exp, 3, (-161, 1), side)
            assert rp.degree == 1
            assert rp.coefficients[0] and rp.coefficients[-1]

    def test_x4_minus_17_first_side(self):
        f = pure_polynomial(PureFieldParams(2, 2, 17))
        exp = phi_expansion(f, (-1, 1))
        hull = lower_convex_hull(valued_points(exp, 2))
        side = hull.sides[0]
        rp = residual_polynomial(exp, 2, (-1, 1), side)
        one = rp.field.one()
        assert rp.coefficients == (one, one)  # y + 1
        assert str(rp) == "y + 1"

    def test_x4_minus_17_ramified_side(self):
        f = pure_polynomial(PureFieldParams(2, 2, 17))
        exp = phi_expansion(f, (-1, 1))
        hull = lower_convex_hull(valued_points(exp, 2))
        side = hull.sides[-1]
        assert (side.e, side.degree) == (2, 1)
        rp = residual_polynomial(exp, 2, (-1, 1), side)
        one = rp.field.one()
        assert rp.coefficients == (one, one)

    def test_on_side_interior_point(self):
        # f = x^4 + 2x^2 + 4 at p = 2, base x: points (0,2),(2,1),(4,0) are
        # collinear, so the hull is a single side with e = 2, degree 2
        exp = phi_expansion((4, 0, 2, 0, 1), (0, 1))
        hull = lower_convex_hull(valued_points(exp, 2))
        assert [tuple(v) for v in hull.vertices] == [(0, 2), (4, 0)]
        side = hull.sides[0]
        assert side.e == 2 and side.degree == 2
        rp = residual_polynomial(exp, 2, (0, 1), side)
        # t_1 reads the coefficient at abscissa 2, which lies on the side
        assert all(bool(c) for c in rp.coefficients)

    def test_off_side_position_gives_zero(self):
        # x^4 + 4x^2 - 4 at p = 2, base x: (2,2) lies strictly above the
        # side (0,2) -> (4,0), so the middle residual coefficient vanishes
        exp = phi_expansion((-4, 0, 4, 0, 1), (0, 1))
        hull = lower_convex_hull(valued_points(exp, 2))
        assert [tuple(v) for v in hull.vertices] == [(0, 2), (4, 0)]
        rp = residual_polynomial(exp, 2, (0, 1), hull.sides[0])
        assert bool(rp.coefficients[0]) and bool(rp.coefficients[2])
        assert not rp.coefficients[1]

    def test_wrong_base_rejected(self):
        exp = phi_expansion((4, 0, 2, 0, 1), (0, 1))
        side = Side.from_endpoints(ValuedPoint(0, 2), ValuedPoint(4, 0))
        with pytest.raises(ValidationError):
            residual_polynomial(exp, 2, (1, 1), side)

    def test_unit_coefficients_leave_no_principal_part(self):
        # all-unit coefficients give a flat polygon: nothing of negative
        # slope, matching reduction mod p carrying all the information
        f = (2, 1, 1)  # x^2 + x + 2 at p = 3
        exp = phi_expansion(f, (0, 1))
        pts = valued_points(exp, 3)
        assert all(pt.v == 0 for pt in pts)
        hull = lower_convex_hull(pts)
        assert principal_part(hull).is_empty

    def test_slope_zero_residual_is_reduction_mod_p(self):
        # on a slope-0 side over the base x the residual polynomial is
        # the reduction of f mod p on that abscissa range
        f = (2, 1, 1)  # x^2 + x + 2 at p = 3
        exp = phi_expansion(f, (0, 1))
        hull = lower_convex_hull(valued_points(exp, 3))
        assert len(hull.sides) == 1 and hull.sides[0].slope == 0
        rp = residual_polynomial(exp, 3, (0, 1), hull.sides[0])
        assert [c.rep[0] if c.rep else 0 for c in rp.as_poly()] == [2, 1, 1]


class TestPolygonInvariants:
    def test_index_monotone_under_upward_shift(self):
        # raising every valuation by one can only add lattice points
        rng = random.Random(77)
        for _ in range(150):
            pts = [
                ValuedPoint(i, rng.randint(0, 12))
                for i in rng.sample(range(25), rng.randint(2, 12))
            ]
            base = principal_part(lower_convex_hull(pts))
            shifted = principal_part(
                lower_convex_hull([ValuedPoint(i, v + 1) for i, v in pts])
            )
            assert phi_index(shifted, 1) >= phi_index(base, 1)

    def test_side_sum_identities(self):
        rng = random.Random(1234)
        for _ in range(200):
            pts = [
                ValuedPoint(i, rng.randint(0, 20))
                for i in rng.sample(range(40), rng.randint(2, 15))
            ]
            hull = lower_convex_hull(pts)
            lo, hi = hull.span
            assert sum(s.length for s in hull.sides) == hi - lo
            principal = principal_part(hull)
            if principal.is_empty:
                continue
            drop = principal.sides[0].start.v - principal.sides[-1].end.v
            assert sum(s.height for s in principal.sides) == drop
            for side in principal.sides:
                for pt in side.lattice_points():
                    assert side.ordinate_at(pt.i) == pt.v
