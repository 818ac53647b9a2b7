import pytest

from monogenity.errors import ValidationError
from monogenity.ore import (
    NOT_REGULAR,
    SplittingShape,
    _phi_report,
    analyze_prime,
    index_lower_bound,
    phi_report,
    splitting_shape,
)
from monogenity.zpoly import PureFieldParams, pure_polynomial


def shape_pairs(reports):
    shape = splitting_shape(reports)
    assert shape is not NOT_REGULAR
    return shape.pairs


class TestAnalyzePrime:
    def test_x4_minus_17_at_2(self):
        reports = analyze_prime((-17, 0, 0, 0, 1), 2)
        assert len(reports) == 1
        report = reports[0]
        assert report.phi == (1, 1)  # canonical lift of the only factor
        assert report.multiplicity == 4
        assert [tuple(v) for v in report.polygon.vertices] == [
            (0, 4), (1, 2), (2, 1), (4, 0),
        ]
        assert report.regular

    def test_pure_at_q_dividing_m(self):
        f = pure_polynomial(PureFieldParams(2, 2, 3))
        reports = analyze_prime(f, 3)
        assert len(reports) == 1
        report = reports[0]
        assert report.phi == (0, 1)
        assert len(report.principal.sides) == 1
        side = report.principal.sides[0]
        assert (tuple(side.start), tuple(side.end)) == ((0, 1), (4, 0))
        assert side.degree == 1
        assert report.index == 0

    def test_irreducible_reduction(self):
        reports = analyze_prime((1, 0, 1), 3)  # x^2 + 1 irreducible mod 3
        assert len(reports) == 1
        report = reports[0]
        assert report.phi == (1, 0, 1)
        assert report.multiplicity == 1
        assert report.principal.is_empty
        assert report.index == 0

    def test_non_monic_rejected(self):
        with pytest.raises(ValidationError):
            analyze_prime((1, 2), 3)

    def test_several_factors(self):
        # x^2 - 7 = (x+1)(x+2) mod 3, irreducible over Q
        reports = analyze_prime((-7, 0, 1), 3)
        assert [r.phi for r in reports] == [(1, 1), (2, 1)]
        assert all(r.multiplicity == 1 for r in reports)
        assert shape_pairs(reports) == ((1, 1), (1, 1))


class TestIndexLowerBound:
    def test_x4_minus_17(self):
        bound = index_lower_bound(analyze_prime((-17, 0, 0, 0, 1), 2))
        assert bound.value == 3  # lattice points (1,1), (1,2), (2,1)
        assert bound.exact

    def test_pivot_one_gives_zero(self):
        f = pure_polynomial(PureFieldParams(2, 2, 3))
        bound = index_lower_bound(analyze_prime(f, 2))
        assert bound == index_lower_bound(analyze_prime(f, 3))
        assert bound.value == 0 and bound.exact

    def test_q_dividing_m_gives_zero(self):
        f = pure_polynomial(PureFieldParams(3, 2, 10))
        for q in (2, 5):
            bound = index_lower_bound(analyze_prime(f, q))
            assert bound.value == 0 and bound.exact


class TestSplittingShape:
    def test_161_at_3(self):
        f = pure_polynomial(PureFieldParams(3, 3, 161))
        reports = [phi_report(f, 3, (-161, 1))]
        shape = splitting_shape(reports)
        assert shape.pairs == ((1, 1), (2, 1), (6, 1), (18, 1))
        assert shape.total_degree() == 27

    def test_17_at_2(self):
        reports = analyze_prime((-17, 0, 0, 0, 1), 2)
        shape = splitting_shape(reports)
        assert shape.pairs == ((1, 1), (1, 1), (2, 1))

    def test_totally_ramified(self):
        f = pure_polynomial(PureFieldParams(2, 3, 5))
        shape = splitting_shape(analyze_prime(f, 5))
        assert shape.pairs == ((8, 1),)

    def test_not_regular_surfaced(self):
        # x^4 + 4x^2 - 4 at 2: residual (y+1)^2 on the single side
        result = splitting_shape(analyze_prime((-4, 0, 4, 0, 1), 2))
        assert result is NOT_REGULAR
        assert not result

    def test_sum_ef_equals_degree(self):
        cases = [
            (pure_polynomial(PureFieldParams(2, 2, 17)), 2),
            (pure_polynomial(PureFieldParams(3, 3, 161)), 3),
            (pure_polynomial(PureFieldParams(5, 1, 7)), 5),
            (pure_polynomial(PureFieldParams(7, 1, 2)), 7),
            ((-7, 0, 1), 3),
            ((1, 0, 1), 3),
            ((2, 0, 1), 7),
        ]
        from monogenity.zpoly import degree

        for f, p in cases:
            shape = splitting_shape(analyze_prime(f, p))
            if shape is not NOT_REGULAR:
                assert shape.total_degree() == degree(f)

    def test_inert_prime(self):
        shape = splitting_shape(analyze_prime((1, 0, 1), 3))
        assert shape.pairs == ((1, 2),)

    def test_seed_independence(self, monkeypatch):
        # the equal-degree split draws from residue._SPLIT_SEED; x^4 - 2 has
        # two linear factors mod 7, so there the split runs
        from monogenity import residue

        pure = pure_polynomial(PureFieldParams(3, 2, 35))
        for f, p in [(pure, 3), (pure, 5), (pure, 7), ((-2, 0, 0, 0, 1), 7)]:
            shapes = []
            for seed in (0, 98765):
                monkeypatch.setattr(residue, "_SPLIT_SEED", seed)
                shapes.append(splitting_shape(analyze_prime(f, p)))
            assert shapes[0] == shapes[1]


class TestCountPrimes:
    def test_examples(self):
        f161 = pure_polynomial(PureFieldParams(3, 3, 161))
        shape = splitting_shape([phi_report(f161, 3, (-161, 1))])
        assert shape.count_residue_degree(1) == 4

        shape17 = splitting_shape(analyze_prime((-17, 0, 0, 0, 1), 2))
        assert shape17.count_residue_degree(1) == 3

        ramified = SplittingShape.from_pairs([(8, 1)])
        assert ramified.count_residue_degree(2) == 0

    def test_string_form(self):
        shape = SplittingShape.from_pairs([(18, 1), (1, 1), (6, 1), (2, 1)])
        assert str(shape) == "1:1,2:1,6:1,18:1"


class TestLiftIndependence:
    """The classifier expands at x - m; the generic engine lifts the
    reduction canonically.  The polygons may differ but the invariants
    that feed the classification cannot, at least on the regular samples
    the family produces."""

    @pytest.mark.parametrize(
        "p,r,m",
        [(2, 2, 17), (3, 3, 161), (5, 1, 7), (2, 2, 3), (7, 1, 19), (3, 2, 10)],
    )
    def test_invariants_agree(self, p, r, m):
        f = pure_polynomial(PureFieldParams(p, r, m))
        canonical = analyze_prime(f, p)
        if m % p == 0:
            base = (0, 1)
        else:
            base = (-m, 1)
        shifted_style = [phi_report(f, p, base)]
        assert index_lower_bound(canonical) == index_lower_bound(shifted_style)
        assert splitting_shape(canonical) == splitting_shape(shifted_style)
        assert [r.regular for r in canonical] == [r.regular for r in shifted_style]


class TestPhiReportValidation:
    def test_base_must_divide_reduction(self):
        with pytest.raises(ValidationError):
            phi_report((1, 0, 1), 3, (1, 1))  # x + 1 does not divide x^2 + 1 mod 3

    def test_base_must_reduce_irreducible(self):
        with pytest.raises(ValidationError):
            phi_report((-17, 0, 0, 0, 1), 2, (1, 0, 1))  # x^2+1 = (x+1)^2 mod 2

    def test_valuation_column_without_unit(self):
        from monogenity.errors import InvariantError
        from monogenity.zpoly import pure_shift_expansion

        params = PureFieldParams(3, 2, 10)
        closed = pure_shift_expansion(params)
        valuations = closed.valuations()[:-1] + (1,)  # a_n = 1 made a non-unit
        with pytest.raises(InvariantError, match="no unit coefficient"):
            _phi_report(3, closed, (range(10), valuations))

    def test_a0_zero_rejected(self):
        # x**2 - x = x * (x - 1): no valued point at abscissa 0
        with pytest.raises(ValidationError, match="divides f over Z"):
            phi_report((0, -1, 1), 2, (0, 1))
