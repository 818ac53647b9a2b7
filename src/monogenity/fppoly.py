"""Dense polynomial arithmetic over prime fields F_p.

A polynomial is a tuple of coefficients in ascending degree order,
reduced to canonical representatives 0..p-1, with the top coefficient
nonzero; the empty tuple is the zero polynomial.  The modulus p travels
as an explicit argument.  The residue fields F_(p^k) keep their elements
in this form, with their own lazily reduced products; factorization over
every finite field, F_p included, is residue.ff_factor.
"""

from __future__ import annotations

from .intarith import prime_divisors, require_prime

FpPoly = tuple[int, ...]

ZERO: FpPoly = ()
ONE: FpPoly = (1,)
X: FpPoly = (0, 1)


def normalize(coeffs, p: int) -> FpPoly:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(g: FpPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(g) - 1


def is_monic(g: FpPoly) -> bool:
    return bool(g) and g[-1] == 1


def add(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return normalize(out, p)


def sub(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return normalize(out, p)


def mul(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return normalize(out, p)


def make_monic(g: FpPoly, p: int) -> FpPoly:
    if not g or g[-1] == 1:
        return g
    inv = pow(g[-1], -1, p)
    return normalize([c * inv for c in g], p)


def divmod_(a: FpPoly, b: FpPoly, p: int) -> tuple[FpPoly, FpPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return ZERO, a
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c:
            q = c * inv_lead % p
            quo[shift] = q
            for j, cb in enumerate(b):
                rem[shift + j] = (rem[shift + j] - q * cb) % p
    return normalize(quo, p), normalize(rem, p)


def mod_(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    return divmod_(a, b, p)[1]


def gcd(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    """Monic greatest common divisor."""
    while b:
        a, b = b, mod_(a, b, p)
    return make_monic(a, p)


def pow_mod(base: FpPoly, e: int, modulus: FpPoly, p: int) -> FpPoly:
    result = mod_(ONE, modulus, p)
    base = mod_(base, modulus, p)
    while e:
        if e & 1:
            result = mod_(mul(result, base, p), modulus, p)
        base = mod_(mul(base, base, p), modulus, p)
        e >>= 1
    return result


def reduce_mod_p(f, p: int) -> FpPoly:
    """Coefficientwise reduction of an integer polynomial into F_p[x]."""
    require_prime(p)
    return normalize(f, p)


def is_irreducible(g: FpPoly, p: int) -> bool:
    """Rabin irreducibility test."""
    n = degree(g)
    if n < 1:
        return False
    if n == 1:
        return True
    g = make_monic(g, p)
    for t in prime_divisors(n):
        h = pow_mod(X, p ** (n // t), g, p)
        if degree(gcd(sub(h, X, p), g, p)) != 0:
            return False
    h = pow_mod(X, p**n, g, p)
    return sub(h, X, p) == ZERO


def factor(g: FpPoly, p: int) -> list[tuple[FpPoly, int]]:
    """Full factorization of a monic polynomial over F_p.

    This is residue.ff_factor over the field F_p, whose construction checks p.
    """
    from .residue import ff_factor, residue_field  # residue builds on this module

    return ff_factor(residue_field(p, X), normalize(g, p))
