import math
import random
from fractions import Fraction

import pytest

from monogenity.errors import ValidationError
from monogenity.oracle import (
    brute_binomial_valuation,
    brute_hull,
    brute_phi_index,
    enumerate_monic_irreducibles,
    factorial_valuation_table,
    pure_valued_points,
    resultant,
    resultant_discriminant_valuation,
)
from monogenity.polygon import NewtonPolygon, Side, ValuedPoint


def polygon_from_vertices(vertices):
    pts = [ValuedPoint(i, v) for i, v in vertices]
    return NewtonPolygon(tuple(Side(a, b) for a, b in zip(pts, pts[1:])))


class TestBruteHull:
    def test_figure_2_points(self):
        pts = [ValuedPoint(*t) for t in [(0, 4), (1, 3), (3, 2), (9, 1), (27, 0)]]
        hull = brute_hull(pts)
        assert [tuple(v) for v in hull.vertices] == [(0, 4), (1, 3), (3, 2), (9, 1), (27, 0)]

    def test_collinear_single_side(self):
        pts = [ValuedPoint(0, 2), ValuedPoint(1, 1), ValuedPoint(2, 0)]
        hull = brute_hull(pts)
        assert len(hull.sides) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            brute_hull([])


class TestBrutePhiIndex:
    def test_figure_1(self):
        assert brute_phi_index(polygon_from_vertices([(0, 5), (1, 3), (5, 1), (9, 0)])) == 9

    def test_figure_2_v4(self):
        assert brute_phi_index(
            polygon_from_vertices([(0, 4), (1, 3), (3, 2), (9, 1), (27, 0)])
        ) == 13

    def test_height_one(self):
        assert brute_phi_index(polygon_from_vertices([(0, 1), (8, 0)])) == 0


class TestBinomialOracles:
    def test_direct(self):
        assert brute_binomial_valuation(3, 9, 3) == 1
        assert brute_binomial_valuation(2, 16, 8) == 1

    def test_factorial_table(self):
        table = factorial_valuation_table(3, 30)
        for j in (1, 5, 9, 27, 30):
            direct = 0
            value = math.factorial(j)
            while value % 3 == 0:
                value //= 3
                direct += 1
            assert table[j] == direct


class TestPureValuedPoints:
    """Points of x**n - m at a base x - c against v_t of the exact
    coefficients of (x + c)**n - m."""

    @pytest.mark.parametrize(
        "n, m, t, c",
        [(9, 10, 3, 10), (8, 17, 2, 17), (25, 7, 5, 7), (16, -3, 2, -3), (27, 6, 3, 6),
         (9, 10, 2, 0), (9, 10, 5, 0), (8, 6, 2, 0)],
    )
    def test_against_exact_coefficients(self, n, m, t, c):
        expected = []
        for i in range(n + 1):
            coefficient = math.comb(n, i) * c ** (n - i) - (m if i == 0 else 0)
            if coefficient:
                expected.append((i, _strip(t, coefficient)))
        assert pure_valued_points(n, m, t, (-c, 1)) == expected

    def test_nonlinear_base_rejected(self):
        with pytest.raises(ValidationError):
            pure_valued_points(4, 3, 2, (1, 1, 1))


def _strip(t, value):
    count = 0
    while value % t == 0:
        value //= t
        count += 1
    return count


def _sylvester_resultant(f, g):
    """Resultant via the Sylvester matrix over Fraction, for cross-checking."""
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return 0
    if n == 0 and m == 0:
        return 1
    size = n + m
    rows = []
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = Fraction(c)
        rows.append(row)
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = Fraction(c)
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return int(det)


class TestResultant:
    def test_known_values(self):
        # Res(x^2 + x + 1, 2x + 1) = 3 (discriminant -3)
        assert resultant((1, 1, 1), (1, 2)) == 3
        # Res(x^2 - 2, 2x) = -8
        assert resultant((-2, 0, 1), (0, 2)) == -8

    def test_against_sylvester(self):
        rng = random.Random(31)
        for _ in range(250):
            f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            while f and f[-1] == 0:
                f.pop()
            while g and g[-1] == 0:
                g.pop()
            if not f or not g:
                continue
            assert resultant(tuple(f), tuple(g)) == _sylvester_resultant(f, g), (f, g)

    def test_common_root_gives_zero(self):
        f = (-1, 0, 1)  # (x-1)(x+1)
        g = (-2, 1, 1)  # (x-1)(x+2)
        assert resultant(f, g) == 0


class TestDiscriminantValuation:
    def test_spec_values(self):
        f = (-3, 0, 0, 0, 1)  # x^4 - 3
        assert resultant_discriminant_valuation(f, 2) == 8
        assert resultant_discriminant_valuation(f, 3) == 3
        assert resultant_discriminant_valuation((-2, 0, 1), 2) == 3  # disc = 8

    def test_degree_guard(self):
        f = (1,) * 66
        with pytest.raises(ValidationError):
            resultant_discriminant_valuation(f + (1,), 2)


class TestEnumerateIrreducibles:
    def test_known_counts(self):
        assert enumerate_monic_irreducibles(2, 2) == 1
        assert enumerate_monic_irreducibles(3, 2) == 3
        assert enumerate_monic_irreducibles(2, 3) == 2
        assert enumerate_monic_irreducibles(5, 1) == 5

    def test_guard(self):
        with pytest.raises(ValidationError):
            enumerate_monic_irreducibles(2, 21)
