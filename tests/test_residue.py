import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from monogenity import fppoly, residue
from monogenity.errors import ValidationError
from monogenity.residue import (
    ResidueField,
    ff_add,
    ff_degree,
    ff_derivative,
    ff_divmod,
    ff_factor,
    ff_gcd,
    ff_make_monic,
    ff_mul,
    ff_mulmod,
    ff_normalize,
    residue_class,
    residue_field,
)

F2 = residue_field(2, (0, 1))  # F_2 as F_2[x]/(x)
F3 = residue_field(3, (0, 1))
F4 = residue_field(2, (1, 1, 1))  # F_2[x]/(x^2 + x + 1)
F9 = residue_field(3, (1, 0, 1))  # F_3[x]/(x^2 + 1)


def _elements(field):
    """Every element of the field, from its representatives."""
    return [field.element(c) for c in itertools.product(range(field.p), repeat=field.degree)]


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
        for z in _elements(field):
            if not z:
                continue
            assert field.mul(z, field.inv(z)) == field.one

    def test_field_axioms_sample(self):
        rng = random.Random(1)
        elems = _elements(F9)
        add, mul = F9.add, F9.mul
        for _ in range(100):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, b) == add(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_pow(self):
        g = F4.element((0, 1))
        assert F4.pow(g, 3) == F4.one  # multiplicative group of F_4 has order 3

    def test_field_cache_is_bounded(self):
        # a long scan meets a new F_q for almost every new prime q of m
        primes = [q for q in range(2, 6000) if all(q % d for d in range(2, int(q**0.5) + 1))]
        for q in primes[:600]:
            residue_field(q, (0, 1))
        assert residue_field.cache_info().currsize <= 512


class TestResidueClass:
    def test_constant_case(self):
        # 12 / 2^2 = 3, reduced mod (2, x - 3) -> 1
        assert residue_class((12,), 2, (-3, 1), 2) == 1

    def test_division_by_p(self):
        # 84 / 3 = 28 = 1 mod 3, any linear base
        assert residue_class((84,), 3, (-161, 1), 1) == 1

    def test_generator_image(self):
        z = residue_class((0, 1), 2, (1, 1, 1), 0)
        assert z == F4.element((0, 1))

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            residue_class((6,), 2, (1, 1), 2)

    def test_automatic_zero_above(self):
        # valuation strictly larger than the shift reduces to zero
        z = residue_class((8,), 2, (1, 1), 2)
        assert not z


class TestSquarefreePoly:
    """A residual is squarefree when every factor has multiplicity 1."""

    def test_spec_examples(self):
        def squarefree(g):
            return all(mult == 1 for _, mult in ff_factor(F2, g))

        assert squarefree((0, 1, 1))  # y^2 + y = y(y+1)
        assert not squarefree((0, 0, 1))  # y^2
        assert not squarefree((1, 0, 1))  # y^2 + 1 = (y+1)^2 over F_2

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            ff_factor(F2, (F2.zero,))


class TestFFFactor:
    @pytest.mark.parametrize("field", [F2, F3, F4, F9])
    def test_roundtrip_random(self, field):
        rng = random.Random(field.order)
        elems = _elements(field)
        for _ in range(25):
            coeffs = [rng.choice(elems) for _ in range(rng.randint(1, 6))]
            coeffs.append(field.one)
            g = ff_normalize(coeffs)
            factors = ff_factor(field, g)
            product = (field.one,)
            for irr, mult in factors:
                assert irr[-1] == field.one
                for _ in range(mult):
                    product = ff_mul(field, product, irr)
            assert product == g
            # squarefree (gcd(g, g') = 1) exactly when no multiplicity exceeds 1
            squarefree = ff_degree(ff_gcd(field, g, ff_derivative(field, g))) == 0
            assert squarefree == all(mult == 1 for _, mult in factors)

    def test_quadratic_split_over_f4(self):
        # y^2 + y + 1 splits over F_4 into (y + g)(y + g^2)
        g = F4.element((0, 1))
        poly = (F4.one, F4.one, F4.one)
        factors = ff_factor(F4, poly)
        assert len(factors) == 2
        assert all(ff_degree(f) == 1 and m == 1 for f, m in factors)
        roots = sorted(F4.sub(F4.zero, f[0]) for f, _ in factors)
        assert roots == sorted([g, F4.mul(g, g)])

    def test_frobenius_power_over_f9(self):
        # (y + 1)^9 = y^9 + 1 in characteristic 3
        one, zero = F9.one, F9.zero
        poly = (one,) + (zero,) * 8 + (one,)
        assert ff_factor(F9, poly) == [((one, one), 9)]

    def test_make_monic(self):
        assert ff_make_monic(F3, (2, 2)) == (1, 1)


def _poly_mul(field, a, b):
    """Product of two polynomials over the field, by schoolbook multiplication."""
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return tuple(out)


def _divides(field, b, a):
    """Whether the monic polynomial b divides a over the field, by long division."""
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        for j, bj in enumerate(b):
            rem[shift + j] = field.sub(rem[shift + j], field.mul(c, bj))
    return not any(rem)


def _check_against_trial_division(field, g, factors):
    """The factors rebuild g, are monic, irreducible by trial division, sorted and distinct."""
    elems = _elements(field)
    product = (field.one,)
    for irr, mult in factors:
        assert irr[-1] == field.one
        for _ in range(mult):
            product = _poly_mul(field, product, irr)
        # no monic divisor of degree 1..deg/2: the factor is irreducible
        for k in range(1, ff_degree(irr) // 2 + 1):
            for tail in itertools.product(elems, repeat=k):
                assert not _divides(field, tail + (field.one,), irr)
    assert product == g
    keys = [(ff_degree(irr), irr) for irr, _ in factors]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@st.composite
def prime_field_polys(draw):
    """A monic polynomial of degree 1..7 over a degree-1 residue field."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    field = residue_field(p, (draw(st.integers(0, p - 1)), 1))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=7))
    return field, ff_normalize(tail + [field.one])


# F_4, F_8, F_9, F_25, F_27, F_49, each with the largest factor degree that
# keeps trial division over it quick
EXTENSION_FIELDS = [
    (F4, 3),
    (residue_field(2, (1, 1, 0, 1)), 3),  # x^3 + x + 1
    (F9, 3),
    (residue_field(5, (2, 0, 1)), 2),  # x^2 + 2
    (residue_field(3, (1, 2, 0, 1)), 2),  # x^3 + 2x + 1
    (residue_field(7, (1, 0, 1)), 2),  # x^2 + 1
]


@st.composite
def extension_field_polys(draw):
    """A product of 1..3 random monic polynomials over F_(p^k), k >= 2.

    Products repeat factors and put several factors of one degree in a
    block, so the squarefree and equal-degree steps both have work.
    """
    field, max_degree = draw(st.sampled_from(EXTENSION_FIELDS))
    element = st.tuples(*[st.integers(0, field.p - 1)] * field.degree).map(field.element)
    g = (field.one,)
    for _ in range(draw(st.integers(1, 3))):
        tail = draw(st.lists(element, min_size=1, max_size=max_degree))
        g = _poly_mul(field, g, ff_normalize(tail + [field.one]))
    return field, g


class TestFFFactorPrimeField:
    """ff_factor against trial division written here, not with residue's ff_* code."""

    @settings(max_examples=300, deadline=None)
    @given(prime_field_polys())
    def test_against_trial_division(self, case):
        field, g = case
        _check_against_trial_division(field, g, ff_factor(field, g))

    @settings(max_examples=150, deadline=None)
    @given(extension_field_polys())
    def test_extension_fields_against_trial_division(self, case):
        field, g = case
        _check_against_trial_division(field, g, ff_factor(field, g))

    def test_two_quadratics_over_f81(self):
        # y^2 - a and y^2 - b for non-squares a != b are distinct irreducibles:
        # one equal-degree block of degree 4 to split into two quadratics
        f81 = residue_field(3, (1, 0, 1, 1, 1))  # x^4 + x^3 + x^2 + 1
        minus_one = f81.element((2,))
        a, b = [z for z in _elements(f81) if z and f81.pow(z, 40) == minus_one][:2]
        quadratics = sorted((f81.sub(f81.zero, c), f81.zero, f81.one) for c in (a, b))
        g = _poly_mul(f81, *quadratics)
        assert ff_factor(f81, g) == [(q, 1) for q in quadratics]

    def test_product_of_linears_over_f2401(self):
        f2401 = residue_field(7, (1, 0, 0, 1, 1))  # x^4 + x^3 + 1
        roots = [f2401.element(c) for c in [(0, 1), (5,), (1, 2, 3, 4), (6, 6, 6, 6), (0, 0, 3)]]
        linears = sorted((f2401.sub(f2401.zero, r), f2401.one) for r in roots)
        g = (f2401.one,)
        for linear in linears:
            g = _poly_mul(f2401, g, linear)
        assert ff_factor(f2401, g) == [(linear, 1) for linear in linears]


def _irreducible_from(p, k, start):
    """The first monic irreducible of degree k over F_p whose low
    coefficients, read as base-p digits, are start or later (cyclically)."""
    for n in range(start, start + p**k):
        low = tuple(n % p**k // p**i % p for i in range(k))
        if fppoly.is_irreducible(low + (1,), p):
            return low + (1,)


def _ref_mul(field, a, b):
    """Element product by full F_p[x] product and full reduction."""
    return fppoly.mod_(fppoly.mul(a, b, field.p), field.modulus, field.p)


def _ref_inv(field, a):
    """a**(q - 2) by square-and-multiply on _ref_mul."""
    result, e = fppoly.ONE, field.order - 2
    while e:
        if e & 1:
            result = _ref_mul(field, result, a)
        a = _ref_mul(field, a, a)
        e >>= 1
    return result


def _ref_poly_mul(field, a, b):
    out = [fppoly.ZERO] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = fppoly.add(out[i + j], _ref_mul(field, ca, cb), field.p)
    return ff_normalize(out)


def _ref_divmod(field, a, b):
    """Schoolbook long division, every element operation reduced at once."""
    p = field.p
    inv_lead = _ref_inv(field, b[-1])
    rem = list(a)
    quo = [fppoly.ZERO] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        q = _ref_mul(field, rem[shift + len(b) - 1], inv_lead)
        quo[shift] = q
        for j, cb in enumerate(b):
            rem[shift + j] = fppoly.sub(rem[shift + j], _ref_mul(field, q, cb), p)
    return ff_normalize(quo), ff_normalize(rem)


@st.composite
def lazy_cases(draw):
    """F_(p^k), p <= 7 and k = 2..4, with a drawn irreducible modulus; two
    elements; and polynomials a, b (b nonzero) and g (deg >= 1) of degree <= 8."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(2, 4))
    field = residue_field(p, _irreducible_from(p, k, draw(st.integers(0, p**k - 1))))
    element = st.lists(st.integers(0, p - 1), min_size=k, max_size=k).map(
        lambda c: fppoly.normalize(c, p)
    )
    poly = st.lists(element, max_size=9).map(ff_normalize)
    return (
        field,
        draw(element),
        draw(element),
        draw(poly),
        draw(poly.filter(bool)),
        draw(poly.filter(lambda g: len(g) >= 2)),
    )


class TestLazyReduction:
    """The one-reduction-per-coefficient arithmetic against fppoly products
    reduced at every step."""

    @settings(max_examples=300, deadline=None)
    @given(lazy_cases())
    def test_against_full_reduction(self, case):
        field, x, y, a, b, g = case
        assert field.mul(x, y) == _ref_mul(field, x, y)
        assert ff_mul(field, a, b) == _ref_poly_mul(field, a, b)
        quo, rem = ff_divmod(field, a, b)
        assert (quo, rem) == _ref_divmod(field, a, b)
        assert ff_add(field, ff_mul(field, quo, b), rem) == a
        assert ff_degree(rem) < ff_degree(b)
        assert ff_mulmod(field, a, b, g) == ff_divmod(field, ff_mul(field, a, b), g)[1]

    def test_every_inverse_of_f625(self):
        field = residue_field(5, (2, 0, 0, 0, 1))  # x^4 + 2
        one = field.one
        for z in _elements(field):
            if z:
                assert field.mul(field.inv(z), z) == one
                assert field.inv(z) == _ref_inv(field, z)

    @pytest.mark.parametrize("field", [F3, F9])
    def test_zero_has_no_inverse(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


class TestPurePower:
    """y^e is split off before the squarefree loop, which would take one
    gcd per multiplicity."""

    def test_y_to_4096_over_f17(self, monkeypatch):
        calls = []
        gcd = residue.ff_gcd
        monkeypatch.setattr(residue, "ff_gcd", lambda *args: calls.append(args) or gcd(*args))
        f17 = residue_field(17, (0, 1))
        assert ff_factor(f17, (0,) * 4096 + (1,)) == [((0, 1), 4096)]
        assert len(calls) <= 2

    @pytest.mark.parametrize("field", [F3, F9])
    def test_power_times_cofactor(self, field):
        # y^5 (y + 1)^2: y^5 is split off, (y + 1)^2 goes through the loop
        one, zero = field.one, field.zero
        y_plus_1 = (one, one)
        g = (zero,) * 5 + (one,)
        for _ in range(2):
            g = ff_mul(field, g, y_plus_1)
        factors = ff_factor(field, g)
        assert ((zero, one), 5) in factors
        assert (y_plus_1, 2) in factors
        assert factors == sorted(factors, key=lambda item: (ff_degree(item[0]), item[0]))
