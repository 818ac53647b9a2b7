"""Monic integer polynomials, the pure-field family x**(p**r) - m, and
its expansion at x - m in closed form.

Integer polynomials are tuples of Python ints in ascending degree
order with no trailing zeros; () is the zero polynomial.  poly is the
normal form, also of polynomials over F_q (zero 0 or ()).  The dense
Z[x] arithmetic, the Gauss valuation and the phi-adic expansion at any
base (PhiExpansion) live in the reference engine monogenity.ore, which
classify never needs.
"""

from __future__ import annotations

from . import intarith
from .errors import NotSquarefree, ValidationError
from .intarith import _fermat_valuation, _valuation, is_prime, require_prime
from .record import Record, TupleRecord

ZPoly = tuple[int, ...]


def poly(coeffs) -> ZPoly:
    out = coeffs if type(coeffs) is tuple else tuple(coeffs)
    n = len(out)
    while n and not out[n - 1]:
        n -= 1
    return out if n == len(out) else out[:n]  # x**4096 - m is not copied


def degree(f: ZPoly) -> int:
    """Degree of a polynomial over Z or over F_q, with the zero polynomial at -1."""
    return len(f) - 1


def derivative(f: ZPoly) -> ZPoly:
    return poly([i * c for i, c in enumerate(f)][1:])


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


def check_prime_power(p: int, r: int) -> None:
    """p prime, then r >= 1: the checks PureFieldParams and mono scan share."""
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    if r < 1:
        raise ValidationError(f"r must be a positive integer, got {r}")


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
        check_prime_power(p, r)
        if m in (-1, 0, 1):
            raise ValidationError(f"m must satisfy |m| >= 2, got {m}")
        primes = []
        for q, e in intarith._prime_powers(m):  # on the module, where a tracer can wrap it
            if e > 1:
                raise NotSquarefree(f"m must be squarefree, got {m}")
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


class PureShiftExpansion(TupleRecord):
    """x**n - m expanded at phi = x - m, for a prime p that does not divide m.

    The binomial theorem gives a_0 = m**n - m and
    a_j = binomial(n, j) * m**(n - j).  No a_j is ever built:
    valuations() gives every v_p(a_j) from the binomial lemma, and unit()
    the first p-adic digit of one a_j, all that the closed-form report at
    p (classify.pure_prime_analysis) reads of its residuals.
    """

    params: PureFieldParams
    nu0: int  # v_p(a_0) = v_p(m**n - m)

    @property
    def phi(self) -> ZPoly:
        return (-self.params.m, 1)

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
        """(v_p(a_j), a_j / p**v_p(a_j) mod p) at 0 <= j <= n, without a_j.

        With j = p**w * c, p not dividing c, binomial(n, j) / p**(r - w) is
        binomial(n - 1, j - 1) / c = (-1)**(j - 1) / c mod p, by Lucas'
        theorem, as every base-p digit of n - 1 is p - 1.
        """
        p, r, m, n = self.params.p, self.params.r, self.params.m, self.params.degree
        if j == 0:
            modulus = p ** (self.nu0 + 1)
            return self.nu0, (pow(m, n, modulus) - m) % modulus // p**self.nu0
        w = _valuation(p, j)
        sign = 1 if j % 2 else -1
        return r - w, sign * pow(j // p**w, -1, p) * pow(m, n - j, p) % p


def pure_shift_expansion(params: PureFieldParams) -> PureShiftExpansion:
    """Expansion of x**n - m at x - m in closed form, for p not dividing m:
    only v_p(a_0) = v_p(m**n - m) needs work, done mod powers of p."""
    p, m = params.p, params.m
    if m % p == 0:
        raise ValidationError(f"the closed form needs p not dividing m, got p={p}, m={m}")
    return PureShiftExpansion(params, _fermat_valuation(p, m, params.degree))


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
        from .ore import phi_expansion

        return phi_expansion
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
