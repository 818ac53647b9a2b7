"""Exact integer arithmetic: p-adic valuations, squarefreeness tests,
and counts of monic irreducible polynomials over prime fields.

Everything here is exact Python-int arithmetic; no floating point is
used anywhere in the package.
"""

from __future__ import annotations

import itertools
import math

from .errors import InvariantError, ValidationError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k (OEIS A014233): the least odd composite that passes Miller-Rabin to
# each of the first k prime bases, so below psi_k those k bases decide
# primality (psi_12 and psi_13: Sorenson and Webster, Math. Comp. 86, 2017).
# Inputs from psi_13 on are rejected rather than answered probabilistically.
_MR_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)
_MR_LIMIT = _MR_PSI[-1]

# factorize divides out the primes below _TRIAL_BOUND and leaves the
# cofactor to Pollard-Brent rho, which takes one gcd per _RHO_BATCH steps
_TRIAL_BOUND = 1000
_RHO_BATCH = 128


class _Infinity:
    """Valuation of 0: compares above every integer and absorbs addition."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return "INFINITY"  # pickled as the module's one instance


INFINITY = _Infinity()


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below psi_13 = 3.317e24: trial
    division by the primes up to 41, then Miller-Rabin to the first k prime
    bases, k the least with n < psi_k."""
    if n >= _MR_LIMIT:
        raise ValidationError(
            f"primality is only decided deterministically below {_MR_LIMIT}; got {n}"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # n has no prime factor up to 41, so every base is below n
    for a, psi in zip(_SMALL_PRIMES, _MR_PSI):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")


def valuation(p: int, n: int):
    """Largest k with p**k | n; INFINITY exactly when n = 0."""
    require_prime(p)
    return _valuation(p, n)


def _valuation(p: int, n: int):
    # valuation() for a p the caller has already checked to be prime
    if n == 0:
        return INFINITY
    if n < 0:
        n = -n
    k = 0
    while True:
        q, rem = divmod(n, p)
        if rem:
            return k
        n = q
        k += 1


def _fermat_valuation(p: int, m: int, e: int) -> int:
    """v_p(m**e - m), the paper's nu at e = p, for a p already checked: read
    off pow(m, e, p**k) - m, with k doubled until it is nonzero mod p**k."""
    if m in (-1, 0, 1) or e < 2:
        raise ValidationError(f"m**e - m must be nonzero, got m={m}, e={e}")
    k = 4
    while True:
        modulus = p**k
        residue = (pow(m, e, modulus) - m) % modulus
        if residue:
            return _valuation(p, residue)
        k *= 2


def binomial_valuation(p: int, r: int, j: int) -> int:
    """p-adic valuation of C(p**r, j), computed as r - v_p(j).

    Valid for 1 <= j <= p**r - 1; the closed form is what makes the
    polygon of x**(p**r) - m computable without touching the actual
    binomial coefficients.
    """
    require_prime(p)
    if r < 1:
        raise ValidationError(f"r must be positive, got {r}")
    if not 1 <= j <= p**r - 1:
        raise ValidationError(f"j must lie in 1..p**r-1, got j={j} for p**r={p**r}")
    return r - _valuation(p, j)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as (prime, exponent) pairs, primes ascending.

    Trial division by 2, 3 and 6k +- 1 strips the primes below
    _TRIAL_BOUND; a cofactor left over is split by Miller-Rabin and
    Pollard-Brent rho, so the time is bounded for every |n| this module
    can decide.  A composite cofactor at or above _MR_LIMIT makes
    is_prime raise ValidationError.
    """
    return list(_prime_powers(n))


def _prime_powers(n: int):
    """factorize(n) as an iterator: the pairs found by trial division come
    before the cofactor is split, so a caller that stops at the first
    exponent above 1 never splits it."""
    if n == 0:
        raise ValidationError("cannot factor 0")
    n = abs(n)
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    # 6k+-1 wheel
    d = 5
    step = 2
    while d * d <= n and d < _TRIAL_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += step
        step = 6 - step
    if n > 1 and d * d > n:
        # no prime below d divides n, so n is prime
        yield n, 1
    elif n > 1:
        large: list[int] = []
        _split(n, large)
        yield from ((q, large.count(q)) for q in sorted(set(large)))


def _split(n: int, out: list[int]) -> None:
    # the prime factors of n, with repetition; n > 1 has no prime factor below _TRIAL_BOUND
    if is_prime(n):
        out.append(n)
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def _brent_rho(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle detection and batched gcds (Brent, BIT 20, 1980).

    Deterministic: x -> x**2 + c from x = 2 with c = 1, 2, ...; a c whose
    cycle closes mod every prime of n at once yields gcd n and is skipped.
    """
    for c in itertools.count(1):
        y, power, g, q = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            k = 0
            while k < power and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, power - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            power *= 2
        if g == n:
            # the batch overshot: walk it again one gcd at a time
            while True:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                if g > 1:
                    break
        if g != n:
            return g


def is_squarefree(m: int) -> bool:
    """True iff no prime square divides |m|; False at the first square
    trial division finds, before the cofactor is split."""
    if m == 0:
        raise ValidationError("squarefreeness is undefined for 0")
    return all(e == 1 for _, e in _prime_powers(m))


def count_monic_irreducibles(p: int, f: int) -> int:
    """Number of monic irreducible polynomials of degree f over F_p.

    Moebius necklace count: N_f = (1/f) * sum over the squarefree d | f of
    (-1)**k * p**(f/d), k the number of primes of d.
    """
    require_prime(p)
    return _count_monic_irreducibles(p, f)


def _count_monic_irreducibles(p: int, f: int) -> int:
    # count_monic_irreducibles() for a p already checked to be prime
    if f < 1:
        raise ValidationError(f"degree must be positive, got {f}")
    if f == 1:
        return p  # x - c for each c in F_p: the degree every pure analysis reads
    primes = [q for q, _ in factorize(f)]
    total = sum(
        (-1) ** k * p ** (f // math.prod(d))
        for k in range(len(primes) + 1)
        for d in itertools.combinations(primes, k)
    )
    if total % f:
        raise InvariantError(f"necklace count for p={p}, f={f} is not integral")
    return total // f
