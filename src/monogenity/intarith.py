"""Exact integer arithmetic: p-adic valuations, squarefreeness tests,
and counts of monic irreducible polynomials over prime fields.

Everything here is exact Python-int arithmetic; no floating point is
used anywhere in the package.
"""

from __future__ import annotations

from typing import Union

from .errors import InvariantError, ValidationError

# Deterministic Miller-Rabin with these witnesses is correct below this
# bound (Sorenson-Webster); larger inputs are rejected rather than
# answered probabilistically.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _restore_infinity():
    return INFINITY


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
        return (_restore_infinity, ())


INFINITY = _Infinity()

Valuation = Union[int, _Infinity]


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.317e24."""
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
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """Prime factorization of |n| by trial division, as (prime, exponent) pairs."""
    if n == 0:
        raise ValidationError("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # 6k+-1 wheel
    d = 5
    step = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def is_squarefree(m: int) -> bool:
    """True iff no prime square divides |m| (full trial-division factorization)."""
    if m == 0:
        raise ValidationError("squarefreeness is undefined for 0")
    return all(e == 1 for _, e in factorize(m))


def moebius(n: int) -> int:
    if n < 1:
        raise ValidationError(f"moebius needs a positive argument, got {n}")
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def count_monic_irreducibles(p: int, f: int) -> int:
    """Number of monic irreducible polynomials of degree f over F_p.

    Moebius necklace count: N_f = (1/f) * sum over d | f of mu(d) * p**(f/d).
    """
    require_prime(p)
    return _count_monic_irreducibles(p, f)


def _count_monic_irreducibles(p: int, f: int) -> int:
    # count_monic_irreducibles() for a p already checked to be prime
    if f < 1:
        raise ValidationError(f"degree must be positive, got {f}")
    total = sum(moebius(d) * p ** (f // d) for d in _divisors(f))
    if total % f:
        raise InvariantError(f"necklace count for p={p}, f={f} is not integral")
    return total // f
