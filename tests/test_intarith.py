import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from monogenity.errors import ValidationError
from monogenity.intarith import (
    _MR_LIMIT,
    _fermat_valuation,
    _valuation,
    INFINITY,
    binomial_valuation,
    count_monic_irreducibles,
    factorize,
    is_prime,
    is_squarefree,
    valuation,
)
from monogenity.oracle import brute_binomial_valuation, enumerate_monic_irreducibles
from monogenity.zpoly import PureFieldParams

# the first prime above intarith._MR_LIMIT (strong probable prime to the 20
# prime bases below 72 and 40 random ones)
LARGE_PRIME = 3317044064679887385962123


class TestValuation:
    def test_162_at_3(self):
        assert valuation(3, 162) == 4

    def test_sign_ignored(self):
        assert valuation(2, -16) == 4

    def test_coprime(self):
        assert valuation(5, 7) == 0

    def test_zero_is_infinity(self):
        assert valuation(3, 0) is INFINITY

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            valuation(6, 12)

    def test_infinity_ordering(self):
        assert INFINITY > 10**100
        assert not INFINITY < 5
        assert INFINITY >= INFINITY
        assert INFINITY + 3 is INFINITY
        assert 3 + INFINITY is INFINITY

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
    )
    def test_multiplicative(self, p, a, b):
        assert valuation(p, a * b) == valuation(p, a) + valuation(p, b)


class TestFermatValuation:
    """v_p(m**e - m) read mod powers of p, against the big integer."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([q for q in range(2, 62) if is_prime(q)]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=0, max_value=3),
    )
    @example(p=2, r=3, m=17, k=0)  # v_2(17**8 - 17) = 4
    @example(p=2, r=4, m=-(10**30), k=0)  # negative, and a multiple of 2**30
    @example(p=5, r=2, m=15626, k=0)  # 15626 = 1 + 5**6
    def test_against_big_integer(self, p, r, m, k):
        m = m // p**k * p**k  # a multiple of p**k, as large as 10**30
        if abs(m) < 2:
            m = 2 * p**k
        n = p**r if p**r <= 4096 else p * p
        for e in (p, n):
            assert _fermat_valuation(p, m, e) == _valuation(p, m**e - m), (p, m, e)

    @pytest.mark.parametrize("m, e", [(0, 3), (1, 3), (-1, 3), (5, 1)])
    def test_zero_difference_rejected(self, m, e):
        with pytest.raises(ValidationError, match="nonzero"):
            _fermat_valuation(3, m, e)


class TestBinomialValuation:
    def test_spec_values(self):
        assert binomial_valuation(3, 2, 3) == 1  # C(9,3) = 84 = 2^2*3*7
        assert binomial_valuation(2, 4, 8) == 1  # C(16,8) = 12870
        for p, r in [(2, 3), (3, 2), (5, 1), (7, 2)]:
            assert binomial_valuation(p, r, 1) == r

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            binomial_valuation(3, 2, 0)
        with pytest.raises(ValidationError):
            binomial_valuation(3, 2, 9)

    def test_against_direct_computation(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            r = rng.randint(1, 4)
            j = rng.randint(1, p**r - 1)
            assert binomial_valuation(p, r, j) == brute_binomial_valuation(p, p**r, j)


class TestSquarefree:
    def test_examples(self):
        assert is_squarefree(161)  # 7 * 23
        assert not is_squarefree(80)  # 16 | 80
        assert is_squarefree(-6)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            is_squarefree(0)

    def test_against_sympy_style_definition(self):
        for m in range(2, 500):
            expected = all(m % (q * q) for q in range(2, int(math.isqrt(m)) + 1))
            assert is_squarefree(m) == expected


def trial_division(n: int) -> list[tuple[int, int]]:
    # the plain definition: divide out every d = 2, 3, 4, ... while d * d <= n
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class TestFactorize:
    def test_small(self):
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(-161) == [(7, 1), (23, 1)]

    def test_large_prime_tail(self):
        assert factorize(2 * 10007) == [(2, 1), (10007, 1)]

    @given(
        st.integers(min_value=1, max_value=10**8 - 1),
        st.booleans(),
    )
    # cofactors past the trial bound: two primes, a prime square, a prime
    @example(1009 * 1013, False)
    @example(9973 * 10007, True)
    @example(1009**2, False)
    @example(99999989, False)
    def test_against_trial_division(self, n, negative):
        assert factorize(-n if negative else n) == trial_division(n)

    @pytest.mark.parametrize(
        "n, expected",
        [
            (1000003 * 1000000007, [(1000003, 1), (1000000007, 1)]),
            ((10**9 + 7) * (2 * 10**9 + 11), [(10**9 + 7, 1), (2 * 10**9 + 11, 1)]),
            (3 * (10**9 + 7) ** 2, [(3, 1), (10**9 + 7, 2)]),
            (1009**3, [(1009, 3)]),
            (561, [(3, 1), (11, 1), (17, 1)]),  # a Carmichael number
            # a balanced 20-digit semiprime
            (4000000007 * 7000000001, [(4000000007, 1), (7000000001, 1)]),
            (999999999999999989, [(999999999999999989, 1)]),
        ],
    )
    def test_pinned(self, n, expected):
        assert all(is_prime(q) for q, _ in expected)
        assert factorize(n) == expected
        assert factorize(-n) == expected

    def test_batch_overshoot_walked_again(self, monkeypatch):
        # at c = 1 the batched gcd of 1009 * 1049 is n itself: the walk
        # closed its cycle mod both primes within one batch, so rho walks
        # that batch again one gcd at a time and finds a prime
        n = 1009 * 1049
        gcd, results = math.gcd, []

        def recording(a, b):
            results.append(gcd(a, b))
            return results[-1]

        monkeypatch.setattr(math, "gcd", recording)
        assert factorize(n) == [(1009, 1), (1049, 1)]
        assert n in results and results[-1] in (1009, 1049)

    def test_square_of_large_prime_not_squarefree(self):
        m = 3 * (10**9 + 7) ** 2
        assert not is_squarefree(m)
        with pytest.raises(ValidationError, match="squarefree"):
            PureFieldParams(3, 1, m)

    def test_small_primes_beyond_the_primality_limit(self):
        # only trial division runs, so no primality test bounds the answer
        primorial = math.prod(q for q in range(2, 72) if is_prime(q))
        assert primorial > _MR_LIMIT
        assert factorize(primorial) == [(q, 1) for q in range(2, 72) if is_prime(q)]

    def test_square_rejected_before_the_cofactor(self):
        # trial division finds 2**2; the cofactor past the limit is never tested
        m = 4 * LARGE_PRIME
        assert not is_squarefree(m)
        with pytest.raises(ValidationError, match="must be squarefree"):
            PureFieldParams(3, 1, m)
        with pytest.raises(ValidationError, match="only decided deterministically"):
            factorize(m)

    def test_large_cofactor_rejected(self):
        # a prime just above the deterministic Miller-Rabin limit
        with pytest.raises(ValidationError, match="only decided deterministically"):
            factorize(2 * LARGE_PRIME)


class TestCountMonicIrreducibles:
    def test_linear(self):
        for p in (2, 3, 5, 7, 11):
            assert count_monic_irreducibles(p, 1) == p

    def test_spec_values(self):
        assert count_monic_irreducibles(2, 2) == 1
        assert count_monic_irreducibles(3, 2) == 3

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_matches_enumeration(self, p, f):
        assert count_monic_irreducibles(p, f) == enumerate_monic_irreducibles(p, f)

    def test_identities(self):
        # every f <= 30, so that f = 30 = 2 * 3 * 5 sums over three primes
        for p, f in itertools.product([2, 3, 5, 7], range(1, 31)):
            n_f = count_monic_irreducibles(p, f)
            assert f * n_f <= p**f
            divisors = [d for d in range(1, f + 1) if f % d == 0]
            assert sum(d * count_monic_irreducibles(p, d) for d in divisors) == p**f


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)

    def test_too_large_rejected(self):
        with pytest.raises(ValidationError):
            is_prime(10**25)

    # psi_k (OEIS A014233): the least odd composite that is a strong
    # probable prime to each of the first k prime bases
    PSI = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461,
    )

    @pytest.mark.parametrize("k, psi", enumerate(PSI, 1))
    def test_psi_composites_rejected(self, k, psi):
        # psi_12 = 399165290221 * 798330580441 passed the 12 bases up to 37
        # that used to be run on every n below psi_13
        assert not is_prime(psi)

    def test_agrees_with_a_sieve_below_10_6(self):
        n = 10**6
        sieve = bytearray([1]) * n
        sieve[0] = sieve[1] = 0
        for q in range(2, math.isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
        assert [q for q in range(n) if is_prime(q) != sieve[q]] == []
