import itertools
import random

import pytest

from monogenity import fppoly, residue
from monogenity.errors import ValidationError
from monogenity.fppoly import (
    add,
    degree,
    divmod_,
    factor,
    gcd,
    is_irreducible,
    mul,
    normalize,
    pow_mod,
    reduce_mod_p,
    sub,
)


def poly_from_ints(coeffs, p):
    return normalize(coeffs, p)


class TestReduceModP:
    def test_spec_examples(self):
        # x^4 - 17 over F_2 -> x^4 + 1
        assert reduce_mod_p((-17, 0, 0, 0, 1), 2) == (1, 0, 0, 0, 1)
        # x^9 - 5 over F_3 -> x^9 + 1
        assert reduce_mod_p((-5,) + (0,) * 8 + (1,), 3) == (1,) + (0,) * 8 + (1,)
        # x^2 - 4 over F_2 -> x^2
        assert reduce_mod_p((-4, 0, 1), 2) == (0, 0, 1)


class TestArithmetic:
    def test_divmod_roundtrip(self):
        rng = random.Random(3)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 13])
            a = poly_from_ints([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            b = poly_from_ints([rng.randrange(p) for _ in range(rng.randint(1, 6))], p)
            if not b:
                continue
            q, r = divmod_(a, b, p)
            assert add(mul(q, b, p), r, p) == a
            assert degree(r) < degree(b)

    def test_gcd_divides_both(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.choice([2, 3, 7])
            a = poly_from_ints([rng.randrange(p) for _ in range(6)], p)
            b = poly_from_ints([rng.randrange(p) for _ in range(4)], p)
            g = gcd(a, b, p)
            if g:
                assert divmod_(a, g, p)[1] == ()
                assert divmod_(b, g, p)[1] == ()

    def test_pow_mod_fermat(self):
        # x^p = x mod (irreducible of degree 1) composed over all of F_p
        p = 5
        m = (3, 1)  # x + 3
        assert pow_mod((0, 1), p, m, p) == pow_mod((0, 1), 1, m, p)


class TestFactor:
    def test_frobenius_powers(self):
        # (x+1)^4 = x^4 + 1 over F_2
        assert factor((1, 0, 0, 0, 1), 2) == [((1, 1), 4)]
        # (x+1)^9 = x^9 + 1 over F_3
        assert factor((1,) + (0,) * 8 + (1,), 3) == [((1, 1), 9)]

    def test_irreducible_stays(self):
        assert factor((1, 1, 1), 2) == [((1, 1, 1), 1)]

    def test_non_monic_rejected(self):
        with pytest.raises(ValidationError):
            factor((1, 2), 3)
        with pytest.raises(ValidationError):
            factor((), 3)

    def test_roundtrip_and_independent_irreducibility(self):
        rng = random.Random(17)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1]
            g = poly_from_ints(coeffs, p)
            result = factor(g, p)
            product = (1,)
            for irr, mult in result:
                assert _is_irreducible_by_trial_division(irr, p)
                for _ in range(mult):
                    product = mul(product, irr, p)
            assert product == g

    def test_factor_order_canonical(self):
        p = 5
        g = (0, 0, 1)  # x^2
        g = mul(g, (1, 1), p)
        g = mul(g, (2, 1), p)
        result = factor(g, p)
        assert result == [((0, 1), 2), ((1, 1), 1), ((2, 1), 1)]

    def test_seed_independent(self, monkeypatch):
        # the equal-degree split draws from residue._SPLIT_SEED; the second
        # polynomial has three linear factors, so the split runs
        p = 7
        for g in (
            poly_from_ints([3, 1, 4, 1, 5, 9, 2, 6, 1], p),
            mul(mul(mul((1, 1), (2, 1), p), (3, 1), p), (1, 0, 1), p),
        ):
            results = []
            for seed in (0, 123456):
                monkeypatch.setattr(residue, "_SPLIT_SEED", seed)
                results.append(factor(g, p))
            assert results[0] == results[1]

    def test_larger_prime_with_edf(self):
        # x^4 - 2 over F_7 has a mix of linear and quadratic factors
        p = 7
        g = reduce_mod_p((-2, 0, 0, 0, 1), p)
        result = factor(g, p)
        product = (1,)
        for irr, mult in result:
            assert is_irreducible(irr, p)
            for _ in range(mult):
                product = mul(product, irr, p)
        assert product == g
        assert sum(degree(f) * m for f, m in result) == 4


def _is_irreducible_by_trial_division(g, p):
    n = degree(g)
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if divmod_(g, tail + (1,), p)[1] == ():
                return False
    return True


class TestIsIrreducible:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_trial_division(self, p):
        rng = random.Random(p)
        for _ in range(80):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
            g = poly_from_ints(coeffs, p)
            assert is_irreducible(g, p) == _is_irreducible_by_trial_division(g, p)

    def test_sub_and_constants(self):
        assert sub((1, 1), (1,), 2) == (0, 1)
        assert not is_irreducible((1,), 5)
