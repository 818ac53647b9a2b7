import functools
import itertools
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from monogenity import ore
from monogenity.errors import InvariantError, ValidationError
from monogenity.ore import (
    ff_add,
    ff_derivative,
    ff_divmod,
    ff_factor,
    ff_gcd,
    ff_mod,
    ff_mul,
    ff_mulmod,
    ff_pow_mod,
    ff_sub,
    residue_class,
)
from monogenity.oracle import _poly_mod_small, is_irreducible_by_trial_division
from monogenity.residue import (
    X,
    ff_make_monic,
    reduce_mod_p,
    residue_field,
)
from monogenity.zpoly import degree

F2 = residue_field(2, (0, 1))  # F_2 as F_2[x]/(x)
F3 = residue_field(3, (0, 1))
# F_4 = F_2[x]/(x^2 + x + 1) and F_9 = F_3[x]/(x^2 + 1) are built as their
# tests run, so that a fault in the F_(p^k) arithmetic fails those tests and
# not the collection of this module
F4 = functools.partial(residue_field, 2, (1, 1, 1))
F9 = functools.partial(residue_field, 3, (1, 0, 1))
# (p, modulus) of F_2, F_3, F_4 and F_9, for the field fixture
SMALL_FIELDS = [(2, (0, 1)), (3, (0, 1)), F4.args, F9.args]


@pytest.fixture
def field(request):
    """The residue field a test is parametrized over by (p, modulus)."""
    return residue_field(*request.param)


def _trim(coeffs):
    """A coefficient list without its zero top coefficients."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# Reference element arithmetic: integer polynomials reduced by the oracle's
# F_p[x] remainder, sharing no code with residue's arithmetic


def _ref_element(field, coeffs):
    """The class of the integer polynomial coeffs."""
    rep = tuple(_poly_mod_small(coeffs, field.modulus, field.p))
    if field.degree > 1:
        return rep
    return rep[0] if rep else 0


def _ints(field, a):
    # an element as a list of integer coefficients
    return [a] if field.degree == 1 else list(a)


def _ref_add(field, a, b):
    pairs = itertools.zip_longest(_ints(field, a), _ints(field, b), fillvalue=0)
    return _ref_element(field, [x + y for x, y in pairs])


def _ref_sub(field, a, b):
    pairs = itertools.zip_longest(_ints(field, a), _ints(field, b), fillvalue=0)
    return _ref_element(field, [x - y for x, y in pairs])


def _ref_mul(field, a, b):
    """Element product by full integer product and full reduction."""
    a, b = _ints(field, a), _ints(field, b)
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ref_element(field, out)


def _elements(field):
    """Every element of the field, from its representatives."""
    return [_ref_element(field, c) for c in itertools.product(range(field.p), repeat=field.degree)]


class TestResidueField:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValidationError):
            residue_field(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2

    def test_non_monic_rejected(self):
        with pytest.raises(ValidationError):
            residue_field(3, (1, 2))

    def test_orders(self):
        assert F2.order == 2
        assert F4().order == 4
        assert F9().order == 9

    @pytest.mark.parametrize("field", SMALL_FIELDS, indirect=True)
    def test_inverses(self, field):
        for z in _elements(field):
            if not z:
                continue
            assert _ref_mul(field, z, field.inv(z)) == field.one

    def test_field_axioms_sample(self):
        rng = random.Random(1)
        f9 = F9()
        elems = _elements(f9)
        add, mul = f9.add, f9.mul
        for _ in range(100):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, b) == add(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_pow(self):
        f4 = F4()
        g = f4.element((0, 1))
        assert f4.pow(g, 3) == f4.one  # multiplicative group of F_4 has order 3

    def test_field_cache_is_bounded(self):
        # a long scan meets a new F_q for almost every new prime q of m
        primes = [q for q in range(2, 6000) if all(q % d for d in range(2, int(q**0.5) + 1))]
        for q in primes[:600]:
            residue_field(q, (0, 1))
        assert residue_field.cache_info().currsize <= 512


_PRIMES_TO_101 = [q for q in range(2, 102) if all(q % d for d in range(2, q))]


class TestPrimeFieldElement:
    """F_p takes the class of an integer polynomial by Horner's rule at the
    root of its linear modulus; the division by the modulus that it replaced
    must give the same element."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_PRIMES_TO_101),
        st.integers(min_value=0, max_value=100),
        st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=60),
    )
    def test_horner_matches_division(self, p, a, coeffs):
        modulus = (a % p, 1)
        field = residue_field(p, modulus)
        prime = residue_field(p, X)
        rep = ff_mod(prime, reduce_mod_p(coeffs, p), modulus)
        assert field.element(coeffs) == (rep[0] if rep else 0)
        assert field.element(coeffs) == _ref_element(field, coeffs)

    def test_long_and_negative(self):
        field = residue_field(101, (7, 1))  # root -7
        coeffs = [(-1) ** i * (10**20 + i) for i in range(500)]
        rep = ff_mod(residue_field(101, X), reduce_mod_p(coeffs, 101), field.modulus)
        assert field.element(coeffs) == rep[0]
        assert field.element(()) == field.element([0, 0, 101]) == 0
        assert field.element([-1]) == 100


class TestResidueClass:
    def test_constant_case(self):
        # 12 / 2^2 = 3, reduced mod (2, x - 3) -> 1
        assert residue_class(residue_field(2, reduce_mod_p((-3, 1), 2)), (12,), 2) == 1

    def test_division_by_p(self):
        # 84 / 3 = 28 = 1 mod 3, any linear base
        assert residue_class(residue_field(3, reduce_mod_p((-161, 1), 3)), (84,), 1) == 1

    def test_generator_image(self):
        z = residue_class(F4(), (0, 1), 0)
        assert z == F4().element((0, 1))

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            residue_class(residue_field(2, (1, 1)), (6,), 2)

    def test_automatic_zero_above(self):
        # valuation strictly larger than the shift reduces to zero
        z = residue_class(residue_field(2, (1, 1)), (8,), 2)
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
    @pytest.mark.parametrize("field", SMALL_FIELDS, indirect=True)
    def test_roundtrip_random(self, field):
        rng = random.Random(field.order)
        elems = _elements(field)
        for _ in range(25):
            coeffs = [rng.choice(elems) for _ in range(rng.randint(1, 6))]
            coeffs.append(field.one)
            g = _trim(coeffs)
            factors = ff_factor(field, g)
            product = (field.one,)
            for irr, mult in factors:
                assert irr[-1] == field.one
                for _ in range(mult):
                    product = ff_mul(field, product, irr)
            assert product == g
            # squarefree (gcd(g, g') = 1) exactly when no multiplicity exceeds 1
            squarefree = degree(ff_gcd(field, g, ff_derivative(field, g))) == 0
            assert squarefree == all(mult == 1 for _, mult in factors)

    def test_quadratic_split_over_f4(self):
        # y^2 + y + 1 splits over F_4 into (y + g)(y + g^2)
        f4 = F4()
        g = f4.element((0, 1))
        poly = (f4.one, f4.one, f4.one)
        factors = ff_factor(f4, poly)
        assert len(factors) == 2
        assert all(degree(f) == 1 and m == 1 for f, m in factors)
        roots = sorted(f4.sub(f4.zero, f[0]) for f, _ in factors)
        assert roots == sorted([g, f4.mul(g, g)])

    def test_frobenius_power_over_f9(self):
        # (y + 1)^9 = y^9 + 1 in characteristic 3
        f9 = F9()
        one, zero = f9.one, f9.zero
        poly = (one,) + (zero,) * 8 + (one,)
        assert ff_factor(f9, poly) == [((one, one), 9)]

    def test_make_monic(self):
        assert ff_make_monic(F3, (2, 2)) == (1, 1)


def _poly_mul(field, a, b):
    """Product of two polynomials over the field, by schoolbook multiplication."""
    out = [field.zero] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = _ref_add(field, out[i + j], _ref_mul(field, ca, cb))
    return _trim(out)


def _poly_add(field, a, b):
    pairs = itertools.zip_longest(a, b, fillvalue=field.zero)
    return _trim(_ref_add(field, x, y) for x, y in pairs)


def _divides(field, b, a):
    """Whether the monic polynomial b divides a over the field, by long division."""
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        for j, bj in enumerate(b):
            rem[shift + j] = _ref_sub(field, rem[shift + j], _ref_mul(field, c, bj))
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
        for k in range(1, degree(irr) // 2 + 1):
            for tail in itertools.product(elems, repeat=k):
                assert not _divides(field, tail + (field.one,), irr)
    assert product == g
    keys = [(degree(irr), irr) for irr, _ in factors]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@st.composite
def prime_field_polys(draw):
    """A monic polynomial of degree 1..7 over a degree-1 residue field."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    field = residue_field(p, (draw(st.integers(0, p - 1)), 1))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=7))
    return field, _trim(tail + [field.one])


# F_4, F_8, F_9, F_25, F_27, F_49 by (p, modulus), each with the largest
# factor degree that keeps trial division over it quick
EXTENSION_FIELDS = [
    (2, (1, 1, 1), 3),  # x^2 + x + 1
    (2, (1, 1, 0, 1), 3),  # x^3 + x + 1
    (3, (1, 0, 1), 3),  # x^2 + 1
    (5, (2, 0, 1), 2),  # x^2 + 2
    (3, (1, 2, 0, 1), 2),  # x^3 + 2x + 1
    (7, (1, 0, 1), 2),  # x^2 + 1
]


@st.composite
def extension_field_polys(draw):
    """A product of 1..3 random monic polynomials over F_(p^k), k >= 2.

    Products repeat factors and put several factors of one degree in a
    block, so the squarefree and equal-degree steps both have work.
    """
    p, modulus, max_degree = draw(st.sampled_from(EXTENSION_FIELDS))
    field = residue_field(p, modulus)
    element = st.tuples(*[st.integers(0, field.p - 1)] * field.degree).map(
        lambda c: _ref_element(field, c)
    )
    g = (field.one,)
    for _ in range(draw(st.integers(1, 3))):
        tail = draw(st.lists(element, min_size=1, max_size=max_degree))
        g = _poly_mul(field, g, _trim(tail + [field.one]))
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
        if is_irreducible_by_trial_division(low + (1,), p):
            return low + (1,)


def _ref_inv(field, a):
    """a**(q - 2) by square-and-multiply on _ref_mul."""
    result, e = field.one, field.order - 2
    while e:
        if e & 1:
            result = _ref_mul(field, result, a)
        a = _ref_mul(field, a, a)
        e >>= 1
    return result


def _ref_divmod(field, a, b):
    """Schoolbook long division, every element operation reduced at once."""
    inv_lead = _ref_inv(field, b[-1])
    rem = list(a)
    quo = [field.zero] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        q = _ref_mul(field, rem[shift + len(b) - 1], inv_lead)
        quo[shift] = q
        for j, cb in enumerate(b):
            rem[shift + j] = _ref_sub(field, rem[shift + j], _ref_mul(field, q, cb))
    return _trim(quo), _trim(rem)


@st.composite
def lazy_cases(draw):
    """F_(p^k), p <= 7 and k = 2..4, with a drawn irreducible modulus; two
    elements; and polynomials a, b (b nonzero) and g (deg >= 1) of degree <= 8."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(2, 4))
    field = residue_field(p, _irreducible_from(p, k, draw(st.integers(0, p**k - 1))))
    element = st.lists(st.integers(0, p - 1), min_size=k, max_size=k).map(
        lambda c: _ref_element(field, c)
    )
    poly = st.lists(element, max_size=9).map(_trim)
    return (
        field,
        draw(element),
        draw(element),
        draw(poly),
        draw(poly.filter(bool)),
        draw(poly.filter(lambda g: len(g) >= 2)),
    )


class TestLazyReduction:
    """The one-reduction-per-coefficient arithmetic against integer
    products reduced at every step by the oracle's F_p[x] remainder."""

    @settings(max_examples=300, deadline=None)
    @given(lazy_cases())
    def test_against_full_reduction(self, case):
        field, x, y, a, b, g = case
        assert field.mul(x, y) == _ref_mul(field, x, y)
        assert ff_mul(field, a, b) == _poly_mul(field, a, b)
        quo, rem = ff_divmod(field, a, b)
        assert (quo, rem) == _ref_divmod(field, a, b)
        assert ff_add(field, ff_mul(field, quo, b), rem) == a
        assert degree(rem) < degree(b)
        assert ff_mulmod(field, a, b, g) == ff_divmod(field, ff_mul(field, a, b), g)[1]

    def test_every_inverse_of_f625(self):
        field = residue_field(5, (2, 0, 0, 0, 1))  # x^4 + 2
        one = field.one
        for z in _elements(field):
            if z:
                assert _ref_mul(field, field.inv(z), z) == one
                assert field.inv(z) == _ref_inv(field, z)

    @pytest.mark.parametrize("field", [(3, (0, 1)), F9.args], indirect=True)
    def test_zero_has_no_inverse(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


class TestPurePower:
    """y^e is split off before the squarefree loop, which would take one
    gcd per multiplicity."""

    def test_y_to_4096_over_f17(self, monkeypatch):
        calls = []
        gcd = ore.ff_gcd
        monkeypatch.setattr(ore, "ff_gcd", lambda *args: calls.append(args) or gcd(*args))
        f17 = residue_field(17, (0, 1))
        assert ff_factor(f17, (0,) * 4096 + (1,)) == [((0, 1), 4096)]
        assert len(calls) <= 2

    @pytest.mark.parametrize("field", [(3, (0, 1)), F9.args], indirect=True)
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
        assert factors == sorted(factors, key=lambda item: (degree(item[0]), item[0]))


class TestReduceModP:
    def test_spec_examples(self):
        # x^4 - 17 over F_2 -> x^4 + 1
        assert reduce_mod_p((-17, 0, 0, 0, 1), 2) == (1, 0, 0, 0, 1)
        # x^9 - 5 over F_3 -> x^9 + 1
        assert reduce_mod_p((-5,) + (0,) * 8 + (1,), 3) == (1,) + (0,) * 8 + (1,)
        # x^2 - 4 over F_2 -> x^2
        assert reduce_mod_p((-4, 0, 1), 2) == (0, 0, 1)


class TestPrimeFieldArithmetic:
    """Polynomials over residue_field(p, X), that is F_p[x]."""

    def test_divmod_roundtrip(self):
        rng = random.Random(3)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 13])
            field = residue_field(p, X)
            a = reduce_mod_p([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            b = reduce_mod_p([rng.randrange(p) for _ in range(rng.randint(1, 6))], p)
            if not b:
                continue
            q, r = ff_divmod(field, a, b)
            assert _poly_add(field, _poly_mul(field, q, b), r) == a
            assert degree(r) < degree(b)

    def test_gcd_divides_both(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.choice([2, 3, 7])
            field = residue_field(p, X)
            a = reduce_mod_p([rng.randrange(p) for _ in range(6)], p)
            b = reduce_mod_p([rng.randrange(p) for _ in range(4)], p)
            g = ff_gcd(field, a, b)
            if g:
                assert g[-1] == 1
                assert _divides(field, g, a)
                assert _divides(field, g, b)

    def test_pow_mod_fermat(self):
        # x^p = x in F_p[x]/(x + 3) = F_5, where x is -3 = 2, and
        # x^(p^2) = x in F_p[x]/(x^2 + 2) = F_25
        p = 5
        field = residue_field(p, X)
        assert ff_pow_mod(field, X, p, (3, 1)) == ff_mod(field, X, (3, 1)) == (2,)
        assert ff_pow_mod(field, X, p**2, (2, 0, 1)) == X


class TestPrimeFieldFactor:
    """ff_factor over residue_field(p, X), that is F_p[x]."""

    def test_frobenius_powers(self):
        # (x+1)^4 = x^4 + 1 over F_2
        assert ff_factor(F2, (1, 0, 0, 0, 1)) == [((1, 1), 4)]
        # (x+1)^9 = x^9 + 1 over F_3
        assert ff_factor(F3, (1,) + (0,) * 8 + (1,)) == [((1, 1), 9)]

    def test_irreducible_stays(self):
        assert ff_factor(F2, (1, 1, 1)) == [((1, 1, 1), 1)]

    def test_non_monic_rejected(self):
        with pytest.raises(ValidationError):
            ff_factor(F3, (1, 2))
        with pytest.raises(ValidationError):
            ff_factor(F3, ())

    def test_roundtrip_and_independent_irreducibility(self):
        rng = random.Random(17)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            field = residue_field(p, X)
            g = reduce_mod_p([rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1], p)
            product = (1,)
            for irr, mult in ff_factor(field, g):
                assert is_irreducible_by_trial_division(irr, p)
                for _ in range(mult):
                    product = _poly_mul(field, product, irr)
            assert product == g

    def test_factor_order_canonical(self):
        field = residue_field(5, X)
        g = _poly_mul(field, _poly_mul(field, (0, 0, 1), (1, 1)), (2, 1))  # x^2 (x+1) (x+2)
        assert ff_factor(field, g) == [((0, 1), 2), ((1, 1), 1), ((2, 1), 1)]

    def test_seed_independent(self, monkeypatch):
        # the equal-degree split draws from ore._SPLIT_SEED; the second
        # polynomial has three linear factors, so the split runs
        p = 7
        field = residue_field(p, X)
        three_linears = _poly_mul(field, _poly_mul(field, (1, 1), (2, 1)), (3, 1))
        for g in (
            reduce_mod_p([3, 1, 4, 1, 5, 9, 2, 6, 1], p),
            _poly_mul(field, three_linears, (1, 0, 1)),
        ):
            results = []
            for seed in (0, 123456):
                monkeypatch.setattr(ore, "_SPLIT_SEED", seed)
                results.append(ff_factor(field, g))
            assert results[0] == results[1]

    def test_larger_prime_with_edf(self):
        # x^4 - 2 over F_7 has a mix of linear and quadratic factors
        p = 7
        field = residue_field(p, X)
        g = reduce_mod_p((-2, 0, 0, 0, 1), p)
        result = ff_factor(field, g)
        product = (1,)
        for irr, mult in result:
            assert is_irreducible_by_trial_division(irr, p)
            for _ in range(mult):
                product = _poly_mul(field, product, irr)
        assert product == g
        assert sum(degree(f) * m for f, m in result) == 4


class TestModulusIrreducibility:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_accepts_exactly_the_irreducibles(self, p):
        # every monic modulus of degree d <= 6 with p**d <= 729, then 100
        # drawn ones of degree 6; residue_field's uncached body, not the
        # cached function, so each modulus is checked afresh
        rng = random.Random(p)
        moduli = [
            tail + (1,)
            for d in range(1, 7)
            if p**d <= 729
            for tail in itertools.product(range(p), repeat=d)
        ]
        moduli += [tuple(rng.randrange(p) for _ in range(6)) + (1,) for _ in range(100)]
        for g in moduli:
            try:
                residue_field.__wrapped__(p, g)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == is_irreducible_by_trial_division(g, p)

    def test_sub_and_constants(self):
        assert ff_sub(F2, (1, 1), (1,)) == (0, 1)
        with pytest.raises(ValidationError):
            residue_field(5, (1,))


class TestBoundedSplit:
    """A wrong field arithmetic makes the equal-degree split fail loudly."""

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    @pytest.mark.parametrize(
        "field, g",
        [
            ((5, (0, 1)), ((4, 1), (3, 1))),  # (y - 1)(y - 2) over F_5
            (F4.args, (((1,), (1,)), ((0, 1), (1,)))),  # (y + 1)(y + x), the trace branch
        ],
        indirect=["field"],
    )
    def test_broken_modular_product_raises(self, monkeypatch, field, g):
        g = ff_mul(field, *g)  # g as given by its two factors
        # a product mod g that drops its second factor: a**e mod g stays 1
        # and every trace is 0, so no draw can split g
        monkeypatch.setattr(ore, "ff_mulmod", lambda fld, a, b, m: ff_mod(fld, a, m))

        def expire(signum, frame):
            raise TimeoutError("the split did not give up within 30 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        try:
            with pytest.raises(InvariantError, match="equal-degree split.*draws"):
                ore._equal_degree(field, g, 1, random.Random(0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
