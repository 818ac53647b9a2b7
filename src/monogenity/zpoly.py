"""Monic integer polynomials, the pure-field family x**(p**r) - m, and
its expansion at x - m in closed form.

Integer polynomials are tuples of Python ints in ascending degree
order with no trailing zeros; () is the zero polynomial.  The dense
Z[x] arithmetic and the phi-adic expansion at any base live in
monogenity.general, which classify never needs.
"""

from __future__ import annotations

import math

from . import intarith
from .errors import ValidationError
from .intarith import INFINITY, _valuation, is_prime, require_prime
from .record import Record, TupleRecord

ZPoly = tuple[int, ...]


def poly(coeffs) -> ZPoly:
    if type(coeffs) is tuple and (not coeffs or coeffs[-1]):
        return coeffs  # already normalized: x**4096 - m is not copied
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: ZPoly) -> int:
    return len(f) - 1


def is_monic(f: ZPoly) -> bool:
    return bool(f) and f[-1] == 1


def derivative(f: ZPoly) -> ZPoly:
    return poly([i * c for i, c in enumerate(f)][1:])


def _poly_valuation(p: int, f: ZPoly):
    """Gauss valuation: minimum of the coefficient valuations (INFINITY for 0),
    for a p the caller has already checked to be prime."""
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


class PureFieldParams(Record):
    """The triple (p, r, m) defining x**(p**r) - m.

    Validity: p prime, r >= 1, m squarefree with |m| >= 2.  Under these
    conditions the polynomial is irreducible over Q (a squarefree m of
    absolute value >= 2 is not a perfect q-th power for any prime q and
    never of the form -4k**4), so no runtime irreducibility test is run.
    The squarefree check factors m, and stops at the first square, so a
    square that trial division finds rejects m before the cofactor is
    split; the primes are kept in m_primes so that nothing else has to
    factor m again.
    """

    __slots__ = ("p", "r", "m", "m_primes")
    _fields = ("p", "r", "m")

    def __init__(self, p: int, r: int, m: int):
        if not is_prime(p):
            raise ValidationError(f"p must be prime, got {p}")
        if r < 1:
            raise ValidationError(f"r must be a positive integer, got {r}")
        if m in (-1, 0, 1):
            raise ValidationError(f"m must satisfy |m| >= 2, got {m}")
        primes = []
        for q, e in intarith._prime_powers(m):  # on the module, where a tracer can wrap it
            if e > 1:
                raise ValidationError(f"m must be squarefree, got {m}")
            primes.append(q)
        for name, value in zip(self.__slots__, (p, r, m, tuple(primes))):
            object.__setattr__(self, name, value)

    @property
    def degree(self) -> int:
        return self.p**self.r

    def polynomial_text(self) -> str:  # to_string(pure_polynomial(self)) in closed form
        return f"x^{self.degree} - {self.m}" if self.m > 0 else f"x^{self.degree} + {-self.m}"


def pure_polynomial(params: PureFieldParams) -> ZPoly:
    """The defining polynomial x**(p**r) - m."""
    n = params.degree
    return (-params.m,) + (0,) * (n - 1) + (1,)


class PhiExpansion(Record):
    """f written as sum of coefficients[i] * phi**i with deg coefficients[i] < deg phi:
    PhiExpansion(phi, coefficients), both ZPoly tuples."""

    __slots__ = _fields = ("phi", "coefficients")

    def __len__(self):
        return len(self.coefficients)

    def coefficient(self, i: int) -> ZPoly:
        return self.coefficients[i] if i < len(self.coefficients) else ()

    def reconstruct(self) -> ZPoly:
        from .general import add, mul  # the dense arithmetic; classify never reconstructs

        acc: ZPoly = ()
        for a in reversed(self.coefficients):
            acc = add(mul(acc, self.phi), a)
        return acc


class PureShiftExpansion(TupleRecord):
    """x**n - m expanded at phi = x - m, for a prime p that does not divide m.

    The binomial theorem gives a_0 = m**n - m and
    a_j = binomial(n, j) * m**(n - j).  No a_j is built for a verdict:
    valuations() gives every v_p(a_j) from the binomial lemma, and unit()
    the first p-adic digit of one a_j, all that residual polynomials
    read.  coefficient() makes one exact a_j, for tests and the dense
    reference.
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

    def valuations(self) -> tuple[int, ...]:
        """v_p(a_j) for j = 0..n: v_p(a_j) = r - v_p(j) for 0 < j < n.

        Those at 0 < j < p**(k + 1) are p copies of those at 0 < j < p**k,
        joined by r - k at the multiples of p**k.
        """
        p, r = self.params.p, self.params.r
        inner = [r] * (p - 1)
        for k in range(1, r):
            inner = ((inner + [r - k]) * p)[:-1]
        return (self.nu0, *inner, 0)

    def unit(self, j: int) -> tuple:
        """(v_p(a_j), a_j / p**v_p(a_j) mod p), without building a_j.

        With j = p**w * c, p not dividing c, binomial(n, j) / p**(r - w) is
        binomial(n - 1, j - 1) / c = (-1)**(j - 1) / c mod p, by Lucas'
        theorem, as every base-p digit of n - 1 is p - 1.  Past n, a_j = 0.
        """
        p, r, m, n = self.params.p, self.params.r, self.params.m, self.params.degree
        if j == 0:
            modulus = p ** (self.nu0 + 1)
            return self.nu0, (pow(m, n, modulus) - m) % modulus // p**self.nu0
        if j > n:
            return INFINITY, 0
        w = _valuation(p, j)
        sign = 1 if j % 2 else -1
        return r - w, sign * pow(j // p**w, -1, p) * pow(m, n - j, p) % p


class PureExpansionAtX(TupleRecord):
    """x**n - m expanded at phi = x: a_0 = -m, a_n = 1 and no term between,
    so at a prime dividing the squarefree m the points are (0, 1) and (n, 0)."""

    params: PureFieldParams
    phi = (0, 1)

    def coefficient(self, i: int) -> ZPoly:
        return (-self.params.m,) if i == 0 else (1,) if i == self.params.degree else ()


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


def __getattr__(name):  # PEP 562: bench/checks.py reads phi_expansion here
    if name == "phi_expansion":
        from .general import phi_expansion

        return phi_expansion
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
