"""Monic integer polynomials, phi-adic expansion, and the pure-field
family x**(p**r) - m.

Integer polynomials are tuples of Python ints in ascending degree
order with no trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import intarith
from .errors import ValidationError
from .intarith import INFINITY, _valuation, is_prime, require_prime

ZPoly = tuple[int, ...]


def poly(coeffs) -> ZPoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: ZPoly) -> int:
    return len(f) - 1


def is_monic(f: ZPoly) -> bool:
    return bool(f) and f[-1] == 1


def add(a: ZPoly, b: ZPoly) -> ZPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return poly(out)


def neg(a: ZPoly) -> ZPoly:
    return tuple(-c for c in a)


def sub(a: ZPoly, b: ZPoly) -> ZPoly:
    return add(a, neg(b))


def mul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly(out)


def divmod_monic(f: ZPoly, g: ZPoly) -> tuple[ZPoly, ZPoly]:
    """Euclidean division by a monic divisor; stays inside Z[x]."""
    if not is_monic(g):
        raise ValidationError("divisor must be monic")
    rem = list(f)
    if len(f) < len(g):
        return (), f
    quo = [0] * (len(f) - len(g) + 1)
    for shift in range(len(f) - len(g), -1, -1):
        c = rem[shift + len(g) - 1]
        if c:
            quo[shift] = c
            for j, cg in enumerate(g):
                rem[shift + j] -= c * cg
    return poly(quo), poly(rem)


def derivative(f: ZPoly) -> ZPoly:
    return poly([i * c for i, c in enumerate(f)][1:])


def poly_valuation(p: int, f: ZPoly):
    """Gauss valuation: minimum of the coefficient valuations (INFINITY for 0)."""
    require_prime(p)
    return _poly_valuation(p, f)


def _poly_valuation(p: int, f: ZPoly):
    # poly_valuation() for a p already checked to be prime
    return min(_valuation(p, c) for c in f) if f else INFINITY


def to_string(f: ZPoly, var: str = "x") -> str:
    if not f:
        return "0"
    terms = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


@dataclass(frozen=True)
class PureFieldParams:
    """The triple (p, r, m) defining x**(p**r) - m.

    Validity: p prime, r >= 1, m squarefree with |m| >= 2.  Under these
    conditions the polynomial is irreducible over Q (a squarefree m of
    absolute value >= 2 is not a perfect q-th power for any prime q and
    never of the form -4k**4), so no runtime irreducibility test is run.
    The squarefree check factors m; its primes are kept in m_primes so
    that nothing else has to factor m again.
    """

    p: int
    r: int
    m: int
    m_primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"p must be prime, got {self.p}")
        if self.r < 1:
            raise ValidationError(f"r must be a positive integer, got {self.r}")
        if self.m in (-1, 0, 1):
            raise ValidationError(f"m must satisfy |m| >= 2, got {self.m}")
        # looked up on the module, where a tracer can wrap it
        factors = intarith.factorize(self.m)
        if any(e > 1 for _, e in factors):
            raise ValidationError(f"m must be squarefree, got {self.m}")
        object.__setattr__(self, "m_primes", tuple(q for q, _ in factors))

    @property
    def degree(self) -> int:
        return self.p**self.r

    def polynomial(self) -> ZPoly:
        return pure_polynomial(self)


def pure_polynomial(params: PureFieldParams) -> ZPoly:
    """The defining polynomial x**(p**r) - m."""
    n = params.degree
    return (-params.m,) + (0,) * (n - 1) + (1,)


@dataclass(frozen=True)
class PhiExpansion:
    """f written as sum of coefficients[i] * phi**i with deg coefficients[i] < deg phi."""

    phi: ZPoly
    coefficients: tuple[ZPoly, ...]

    def __len__(self):
        return len(self.coefficients)

    def coefficient(self, i: int) -> ZPoly:
        return self.coefficients[i] if i < len(self.coefficients) else ()

    def reconstruct(self) -> ZPoly:
        acc: ZPoly = ()
        for a in reversed(self.coefficients):
            acc = add(mul(acc, self.phi), a)
        return acc


def _expand_linear(f: ZPoly, c: int) -> list[ZPoly]:
    # repeated synthetic division by (x - c); the Taylor shift
    work = list(f)
    out: list[ZPoly] = []
    for _ in range(len(f)):
        carry = 0
        for j in range(len(work) - 1, -1, -1):
            carry = carry * c + work[j]
            work[j] = carry
        out.append(poly((work[0],)))
        work = work[1:]
        if not work:
            break
    return out


def phi_expansion(f: ZPoly, phi: ZPoly, force_general: bool = False) -> PhiExpansion:
    """Expansion of f by euclidean division against successive powers of phi.

    Implemented as a remainder tower (repeated division by phi).  For
    linear phi = x - c the synthetic-division fast path produces
    identical output; force_general bypasses it for testing.
    """
    f = poly(f)
    phi = poly(phi)
    if degree(phi) < 1 or not is_monic(phi):
        raise ValidationError("expansion base must be monic of degree >= 1")
    if not f:
        return PhiExpansion(phi, ((),))
    if phi == (0, 1) and not force_general:
        coeffs = [(c,) if c else () for c in f]
    elif degree(phi) == 1 and not force_general:
        coeffs = _expand_linear(f, -phi[0])
    else:
        coeffs = []
        g = f
        while g:
            g, rem = divmod_monic(g, phi)
            coeffs.append(rem)
    while len(coeffs) > 1 and coeffs[-1] == ():
        coeffs.pop()
    return PhiExpansion(phi, tuple(coeffs))


@dataclass(frozen=True)
class PureShiftExpansion:
    """x**n - m expanded at phi = x - m, for a prime p that does not divide m.

    The binomial theorem gives a_0 = m**n - m and
    a_j = binomial(n, j) * m**(n - j).  Nothing of degree n is built:
    points() gives every (j, v_p(a_j)) from the binomial lemma, and
    coefficient() makes one exact a_j when asked, which is all that
    residual polynomials read.
    """

    params: PureFieldParams
    nu0: int  # v_p(a_0) = v_p(m**(n - 1) - 1)

    @property
    def phi(self) -> ZPoly:
        return (-self.params.m, 1)

    def coefficient(self, i: int) -> ZPoly:
        n, m = self.params.degree, self.params.m
        if i == 0:
            return (m**n - m,)
        if i > n:
            return ()
        return (math.comb(n, i) * m ** (n - i),)

    def points(self) -> list[tuple[int, int]]:
        """(j, v_p(a_j)) for j = 0..n: v_p(a_j) = r - v_p(j) for 0 < j < n."""
        p, r, n = self.params.p, self.params.r, self.params.degree
        vals = [r] * n + [0]
        vals[0] = self.nu0
        for k in range(1, r):
            step = p**k
            for j in range(step, n, step):
                vals[j] -= 1
        return list(enumerate(vals))


def pure_shift_expansion(params: PureFieldParams) -> PureShiftExpansion:
    """Expansion of x**n - m at x - m in closed form, for p not dividing m.

    Only v_p(a_0) needs work: v_p(m**n - m) = v_p(m**(n - 1) - 1) is read
    off pow(m, n - 1, p**k), with k doubled until the residue is nonzero.
    """
    p, m, n = params.p, params.m, params.degree
    if m % p == 0:
        raise ValidationError(f"the closed form needs p not dividing m, got p={p}, m={m}")
    k = 4
    while True:
        modulus = p**k
        residue = (pow(m, n - 1, modulus) - 1) % modulus
        if residue:
            return PureShiftExpansion(params, _valuation(p, residue))
        k *= 2


def discriminant_valuation(params: PureFieldParams, q: int) -> int:
    """q-adic valuation of the discriminant of x**(p**r) - m.

    The discriminant is (up to sign) p**(r*p**r) * m**(p**r - 1), so the
    valuation is r*p**r for q = p plus (p**r - 1) * v_q(m).  The params
    have already checked p and factored m, so only another q is checked.
    """
    if q != params.p and q not in params.m_primes:
        require_prime(q)
    n = params.degree
    total = params.r * n if q == params.p else 0
    return total + (n - 1) * _valuation(q, params.m)


def candidate_index_primes(params: PureFieldParams) -> tuple[int, ...]:
    """The primes that can divide the index of Z[alpha]: p and the divisors of m."""
    return tuple(sorted({params.p, *params.m_primes}))
