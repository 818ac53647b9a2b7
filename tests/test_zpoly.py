import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from monogenity.errors import ValidationError
from monogenity.oracle import resultant_discriminant_valuation
from monogenity.zpoly import (
    PureFieldParams,
    candidate_index_primes,
    discriminant_valuation,
    divmod_monic,
    phi_expansion,
    poly,
    pure_polynomial,
    to_string,
)


class TestPureFieldParams:
    def test_valid(self):
        params = PureFieldParams(2, 2, 17)
        assert params.degree == 4
        assert pure_polynomial(params) == (-17, 0, 0, 0, 1)

    def test_cube_family(self):
        assert pure_polynomial(PureFieldParams(3, 3, 161)) == (-161,) + (0,) * 26 + (1,)

    def test_not_squarefree_rejected(self):
        with pytest.raises(ValidationError, match="squarefree"):
            PureFieldParams(2, 2, 80)

    def test_unit_m_rejected(self):
        for m in (-1, 0, 1):
            with pytest.raises(ValidationError):
                PureFieldParams(2, 1, m)

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            PureFieldParams(6, 1, 5)

    def test_negative_m_accepted(self):
        assert PureFieldParams(5, 1, -2).degree == 5


class TestPhiExpansion:
    def test_binomial_shift(self):
        # x^4 - 17 at x - 1: coefficients of (y+1)^4 - 17
        exp = phi_expansion((-17, 0, 0, 0, 1), (-1, 1))
        assert [c[0] if c else 0 for c in exp.coefficients] == [-16, 4, 6, 4, 1]

    def test_base_x_is_identity(self):
        f = (5, -3, 0, 7, 1)
        exp = phi_expansion(f, (0, 1))
        assert tuple(c[0] if c else 0 for c in exp.coefficients) == f

    def test_pure_field_closed_form(self):
        # at x - m the coefficients are binomial(p^r, j) * m^(p^r - j)
        p, r, m = 3, 2, 5
        f = pure_polynomial(PureFieldParams(p, r, m))
        exp = phi_expansion(f, (-m, 1))
        n = p**r
        assert exp.coefficient(0) == (m**n - m,)
        for j in range(1, n + 1):
            assert exp.coefficient(j) == (math.comb(n, j) * m ** (n - j),)

    def test_non_monic_base_rejected(self):
        with pytest.raises(ValidationError):
            phi_expansion((1, 1), (1, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    )
    def test_reconstruction(self, f_coeffs, phi_tail):
        f = poly(f_coeffs)
        phi = poly(phi_tail + [1])
        exp = phi_expansion(f, phi)
        assert exp.reconstruct() == f
        from monogenity.zpoly import degree

        assert all(degree(a) < degree(phi) for a in exp.coefficients if a)

    def test_fast_path_matches_general(self):
        rng = random.Random(2)
        for _ in range(100):
            f = poly([rng.randint(-99, 99) for _ in range(rng.randint(1, 30))])
            c = rng.randint(-20, 20)
            phi = (-c, 1)
            fast = phi_expansion(f, phi)
            slow = phi_expansion(f, phi, force_general=True)
            assert fast == slow

    def test_closed_form_matches_division(self):
        from monogenity.polygon import valued_points
        from monogenity.zpoly import pure_shift_expansion

        # 257 and 65537 put v_p(a_0) at 8 and 16, past the first modulus p**4
        cases = [(2, 2, 17), (3, 2, -10), (5, 1, 7), (2, 4, 33), (3, 3, 161), (2, 3, 257), (2, 2, 65537)]
        for p, r, m in cases:
            params = PureFieldParams(p, r, m)
            direct = pure_shift_expansion(params)
            division = phi_expansion(pure_polynomial(params), (-m, 1))
            assert direct.phi == division.phi
            for i in range(params.degree + 2):
                assert direct.coefficient(i) == division.coefficient(i)
            assert direct.points() == [tuple(pt) for pt in valued_points(division, p)]

    def test_closed_form_needs_p_not_dividing_m(self):
        from monogenity.zpoly import pure_shift_expansion

        with pytest.raises(ValidationError, match="not dividing"):
            pure_shift_expansion(PureFieldParams(3, 2, 6))


class TestDivmodMonic:
    def test_exactness(self):
        rng = random.Random(9)
        for _ in range(100):
            f = poly([rng.randint(-30, 30) for _ in range(rng.randint(0, 12))])
            g = poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
            q, r = divmod_monic(f, g)
            from monogenity.zpoly import add, mul

            assert add(mul(q, g), r) == f


class TestDiscriminantValuation:
    def test_spec_values(self):
        params = PureFieldParams(2, 2, 3)
        assert discriminant_valuation(params, 2) == 8
        assert discriminant_valuation(params, 3) == 3
        assert discriminant_valuation(params, 5) == 0

    def test_p_divides_m(self):
        params = PureFieldParams(3, 1, 6)
        # r*p^r + (p^r - 1) * v_3(6) = 3 + 2
        assert discriminant_valuation(params, 3) == 5

    def test_against_resultant_sweep(self):
        prime_powers = [(p, r) for p in (2, 3, 5) for r in (1, 2, 3, 4, 5) if p**r <= 32]
        prime_powers += [(7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1), (31, 1)]
        for p, r in prime_powers:
            for m in range(-50, 51):
                if m in (-1, 0, 1):
                    continue
                try:
                    params = PureFieldParams(p, r, m)
                except ValidationError:
                    continue
                f = pure_polynomial(params)
                for q in candidate_index_primes(params):
                    assert discriminant_valuation(params, q) == resultant_discriminant_valuation(f, q), (p, r, m, q)


class TestCandidateIndexPrimes:
    def test_examples(self):
        assert candidate_index_primes(PureFieldParams(2, 2, 17)) == (2, 17)
        assert candidate_index_primes(PureFieldParams(3, 3, 161)) == (3, 7, 23)
        assert candidate_index_primes(PureFieldParams(5, 1, -2)) == (2, 5)

    def test_p_divides_m(self):
        assert candidate_index_primes(PureFieldParams(3, 1, 15)) == (3, 5)


def test_to_string():
    assert to_string((-17, 0, 0, 0, 1)) == "x^4 - 17"
    assert to_string(()) == "0"
    assert to_string((1, -2, 3)) == "3*x^2 - 2*x + 1"
