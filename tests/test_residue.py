import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from monogenity.errors import ValidationError
from monogenity.residue import (
    ResidueField,
    ff_degree,
    ff_factor,
    ff_make_monic,
    ff_mul,
    ff_normalize,
    is_squarefree_poly,
    residue_class,
    residue_field,
)

F2 = residue_field(2, (0, 1))  # F_2 as F_2[x]/(x)
F3 = residue_field(3, (0, 1))
F4 = residue_field(2, (1, 1, 1))  # F_2[x]/(x^2 + x + 1)
F9 = residue_field(3, (1, 0, 1))  # F_3[x]/(x^2 + 1)


class TestResidueField:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValidationError):
            ResidueField(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2

    def test_non_monic_rejected(self):
        with pytest.raises(ValidationError):
            ResidueField(3, (1, 2))

    def test_orders(self):
        assert F2.order == 2
        assert F4.order == 4
        assert F9.order == 9

    @pytest.mark.parametrize("field", [F2, F3, F4, F9])
    def test_inverses(self, field):
        for z in field.elements():
            if not z:
                continue
            assert z * z.inverse() == field.one()

    def test_field_axioms_sample(self):
        rng = random.Random(1)
        elems = list(F9.elements())
        for _ in range(100):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)

    def test_pow(self):
        g = F4.gen()
        assert g ** 3 == F4.one()  # multiplicative group of F_4 has order 3

    def test_mixing_fields_rejected(self):
        with pytest.raises(ValidationError):
            F4.one() + F9.one()

    def test_field_cache_is_bounded(self):
        # a long scan meets a new F_q for almost every new prime q of m
        primes = [q for q in range(2, 6000) if all(q % d for d in range(2, int(q**0.5) + 1))]
        for q in primes[:600]:
            residue_field(q, (0, 1))
        assert residue_field.cache_info().currsize <= 512


class TestResidueClass:
    def test_constant_case(self):
        # 12 / 2^2 = 3, reduced mod (2, x - 3) -> 1
        z = residue_class((12,), 2, (-3, 1), 2)
        assert z == z.field.from_int(1)

    def test_division_by_p(self):
        # 84 / 3 = 28 = 1 mod 3, any linear base
        z = residue_class((84,), 3, (-161, 1), 1)
        assert z == z.field.from_int(1)

    def test_generator_image(self):
        z = residue_class((0, 1), 2, (1, 1, 1), 0)
        assert z == F4.gen()

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            residue_class((6,), 2, (1, 1), 2)

    def test_automatic_zero_above(self):
        # valuation strictly larger than the shift reduces to zero
        z = residue_class((8,), 2, (1, 1), 2)
        assert not z


class TestSquarefreePoly:
    def test_spec_examples(self):
        y = F2.one()
        zero = F2.zero()
        assert is_squarefree_poly((zero, y, y))  # y^2 + y = y(y+1)
        assert not is_squarefree_poly((zero, zero, y))  # y^2
        assert not is_squarefree_poly((y, zero, y))  # y^2 + 1 = (y+1)^2 over F_2

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            is_squarefree_poly((F2.zero(),))

    def test_matches_factorization_multiplicities(self):
        rng = random.Random(23)
        for field in (F2, F3, F4):
            elems = list(field.elements())
            for _ in range(40):
                coeffs = [rng.choice(elems) for _ in range(rng.randint(1, 5))]
                coeffs.append(field.one())
                g = ff_normalize(coeffs)
                if ff_degree(g) < 1:
                    continue
                squarefree = is_squarefree_poly(g)
                mults = [m for _, m in ff_factor(g)]
                assert squarefree == all(m == 1 for m in mults)


class TestFFFactor:
    @pytest.mark.parametrize("field", [F2, F3, F4, F9])
    def test_roundtrip_random(self, field):
        rng = random.Random(field.order)
        elems = list(field.elements())
        for _ in range(25):
            coeffs = [rng.choice(elems) for _ in range(rng.randint(1, 6))]
            coeffs.append(field.one())
            g = ff_normalize(coeffs)
            product = (field.one(),)
            for irr, mult in ff_factor(g):
                assert irr[-1] == field.one()
                for _ in range(mult):
                    product = ff_mul(field, product, irr)
            assert product == g

    def test_quadratic_split_over_f4(self):
        # y^2 + y + 1 splits over F_4 into (y + g)(y + g^2)
        g = F4.gen()
        poly = (F4.one(), F4.one(), F4.one())
        factors = ff_factor(poly)
        assert len(factors) == 2
        assert all(ff_degree(f) == 1 and m == 1 for f, m in factors)
        roots = sorted((-f[0]).rep for f, _ in factors)
        assert roots == sorted(z.rep for z in (g, g * g))

    def test_frobenius_power_over_f9(self):
        # (y + 1)^9 = y^9 + 1 in characteristic 3
        one = F9.one()
        zero = F9.zero()
        poly = (one,) + (zero,) * 8 + (one,)
        assert ff_factor(poly) == [((one, one), 9)]

    def test_make_monic(self):
        two = F3.from_int(2)
        g = ff_make_monic(F3, (two, two))
        assert g == (F3.one(), F3.one())


def _values(g):
    """The coefficients of a polynomial over a degree-1 field, as ints."""
    return tuple(c.rep[0] if c.rep else 0 for c in g)


def _divides(b, a, p):
    """Whether the monic int polynomial b divides a over F_p, by long division."""
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] % p
        for j, bj in enumerate(b):
            rem[shift + j] = (rem[shift + j] - c * bj) % p
    return not any(rem)


@st.composite
def prime_field_polys(draw):
    """A monic polynomial of degree 1..7 over a degree-1 residue field."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    field = residue_field(p, (draw(st.integers(0, p - 1)), 1))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=7))
    return field, ff_normalize([field.from_int(c) for c in tail] + [field.one()])


class TestFFFactorPrimeField:
    """ff_factor over F_p against trial division written here, not with fppoly."""

    @settings(max_examples=300, deadline=None)
    @given(prime_field_polys())
    def test_against_trial_division(self, case):
        field, g = case
        p = field.p
        factors = ff_factor(g)
        product = (field.one(),)
        for irr, mult in factors:
            assert irr[-1] == field.one()
            for _ in range(mult):
                product = ff_mul(field, product, irr)
            # no monic divisor of degree 1..deg/2: the factor is irreducible
            values = _values(irr)
            d = ff_degree(irr)
            for k in range(1, d // 2 + 1):
                for tail in itertools.product(range(p), repeat=k):
                    assert not _divides(tail + (1,), values, p)
        assert product == g
        keys = [(ff_degree(irr), _values(irr)) for irr, _ in factors]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
