"""Dense polynomial arithmetic and factorization over prime fields F_p.

A polynomial is a tuple of coefficients in ascending degree order,
reduced to canonical representatives 0..p-1, with the top coefficient
nonzero; the empty tuple is the zero polynomial.  The modulus p travels
as an explicit argument.
"""

from __future__ import annotations

import itertools
import random

from .errors import ValidationError
from .intarith import prime_divisors, require_prime

FpPoly = tuple[int, ...]

# Above this field-size bound equal-degree splitting switches from a
# deterministic exhaustive divisor scan to seeded Cantor-Zassenhaus.
_EXHAUSTIVE_LIMIT = 2**16

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


def mul_scalar(a: FpPoly, c: int, p: int) -> FpPoly:
    return normalize([ai * c for ai in a], p)


def make_monic(g: FpPoly, p: int) -> FpPoly:
    if not g:
        return g
    if g[-1] == 1:
        return g
    return mul_scalar(g, pow(g[-1], -1, p), p)


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


def quo_(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    return divmod_(a, b, p)[0]


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


def derivative(g: FpPoly, p: int) -> FpPoly:
    return normalize([i * c for i, c in enumerate(g)][1:], p)


def reduce_mod_p(f, p: int) -> FpPoly:
    """Coefficientwise reduction of an integer polynomial into F_p[x]."""
    require_prime(p)
    return normalize(f, p)


def lift(g: FpPoly) -> tuple[int, ...]:
    """Canonical lift to Z[x]: representatives 0..p-1 kept as plain ints."""
    return tuple(g)


def monic_polys(p: int, d: int):
    """All monic degree-d polynomials over F_p in lexicographic coefficient order."""
    for tail in itertools.product(range(p), repeat=d):
        yield tail + (1,)


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


def _pth_root(g: FpPoly, p: int) -> FpPoly:
    # valid when g' = 0, i.e. only exponents divisible by p occur; over
    # F_p the coefficient itself is its own p-th root
    return normalize(g[::p], p)


def _squarefree_parts(g: FpPoly, p: int) -> dict[int, FpPoly]:
    """Multiplicity -> squarefree monic factor, with product g (monic input)."""
    out: dict[int, FpPoly] = {}
    _sff_into(g, p, 1, out)
    return out


def _sff_into(f: FpPoly, p: int, scale: int, out: dict[int, FpPoly]) -> None:
    if degree(f) < 1:
        return
    d = derivative(f, p)
    if d == ZERO:
        _sff_into(_pth_root(f, p), p, scale * p, out)
        return
    c = gcd(f, d, p)
    w = quo_(f, c, p)
    i = 1
    while degree(w) > 0:
        y = gcd(w, c, p)
        z = quo_(w, y, p)
        if degree(z) > 0:
            key = i * scale
            out[key] = mul(out[key], z, p) if key in out else z
        w = y
        c = quo_(c, y, p)
        i += 1
    if degree(c) > 0:
        _sff_into(_pth_root(c, p), p, scale * p, out)


def _distinct_degree(g: FpPoly, p: int) -> list[tuple[FpPoly, int]]:
    """Split a squarefree monic g into (product of its degree-d factors, d) parts."""
    out: list[tuple[FpPoly, int]] = []
    h = mod_(X, g, p)
    d = 0
    while degree(g) >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, g, p)
        part = gcd(sub(h, X, p), g, p)
        if degree(part) > 0:
            out.append((part, d))
            g = quo_(g, part, p)
            h = mod_(h, g, p)
    if degree(g) > 0:
        out.append((g, degree(g)))
    return out


def _equal_degree(g: FpPoly, d: int, p: int, rng: random.Random) -> list[FpPoly]:
    """Split g (product of distinct irreducibles, all of degree d) completely."""
    if degree(g) == d:
        return [g]
    if p**d <= _EXHAUSTIVE_LIMIT:
        found = []
        for cand in monic_polys(p, d):
            if mod_(g, cand, p) == ZERO:
                found.append(cand)
                g = quo_(g, cand, p)
                if degree(g) == d:
                    found.append(g)
                    break
                if degree(g) < d:
                    break
        return found
    # Cantor-Zassenhaus
    while True:
        a = normalize([rng.randrange(p) for _ in range(degree(g))], p)
        if degree(a) < 1:
            continue
        if p == 2:
            t = a
            acc = a
            for _ in range(d - 1):
                acc = pow_mod(acc, 2, g, p)
                t = add(t, acc, p)
            h = gcd(t, g, p)
        else:
            b = pow_mod(a, (p**d - 1) // 2, g, p)
            h = gcd(sub(b, ONE, p), g, p)
        if 0 < degree(h) < degree(g):
            return _equal_degree(h, d, p, rng) + _equal_degree(quo_(g, h, p), d, p, rng)


def factor(g: FpPoly, p: int, seed: int = 0) -> list[tuple[FpPoly, int]]:
    """Full factorization of a monic polynomial over F_p.

    Returns (irreducible monic factor, multiplicity) pairs sorted by
    degree then lexicographic coefficient order, so the output is
    deterministic regardless of the seed used for equal-degree
    splitting.
    """
    require_prime(p)
    return _factor(g, p, seed)


def _factor(g, p: int, seed: int = 0) -> list[tuple[FpPoly, int]]:
    # factor() for a p already checked to be prime
    g = normalize(g, p)
    if not g:
        raise ValidationError("cannot factor the zero polynomial")
    if not is_monic(g):
        raise ValidationError("factorization requires a monic polynomial")
    if degree(g) == 1:
        return [(g, 1)]
    rng = random.Random(seed)
    found: dict[FpPoly, int] = {}
    for mult, part in _squarefree_parts(g, p).items():
        for block, d in _distinct_degree(part, p):
            for irr in _equal_degree(block, d, p, rng):
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda item: (degree(item[0]), item[0]))
