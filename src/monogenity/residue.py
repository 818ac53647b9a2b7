"""Residue fields F_q = F_p[x]/(phibar): their elements and the few
polynomial helpers that analyze and scan read.

F_p[x] is the case q = p, with the prime field residue_field(p, X).  A
polynomial over F_q is a tuple of elements in ascending degree order
with a nonzero top coefficient; the empty tuple is the zero polynomial.
An element of a field of degree 1 (F_q = F_p) is a plain int 0..p-1, so
a polynomial over F_p, an FpPoly, is a tuple of ints.  An element of a
field of degree k >= 2 is its reduced representative, an FpPoly of
degree < k.  Elements do not carry their field: it is the first
argument of every ff_* function.

This module is arithmetic only: element operations, the class of an
integer polynomial, monic scaling and printing.  The normal form of a
polynomial over F_q is monogenity.zpoly.poly, the one that Z[x] uses.  F_p
takes the class of an integer polynomial as its value at the root of
the linear modulus (the remainder theorem), so it divides nothing.
The fields of degree k >= 2 (ExtensionField), the residue class of
a(beta)/p**u (residue_class), and the arithmetic, gcds and
factorization of polynomials over any F_q (ff_mul, ff_divmod, ff_gcd,
ff_factor, ...) live in the reference engine monogenity.ore, which
analyze, scan and render never load.
"""

from __future__ import annotations

import functools

from .errors import ValidationError
from .intarith import require_prime
from .record import Record
from .zpoly import poly

FpPoly = tuple[int, ...]

X: FpPoly = (0, 1)


def reduce_mod_p(coeffs, p: int) -> FpPoly:
    """Coefficientwise reduction of an integer polynomial into F_p[x].

    p is not checked: the residue field built over it checks.
    """
    return poly([c % p for c in coeffs])


class ResidueField(Record):
    """The field F_p[x]/(modulus), modulus monic irreducible over F_p.

    residue_field(p, modulus) builds a PrimeField when the modulus is
    linear and otherwise a monogenity.ore.ExtensionField, imported
    then.  Both have zero, one, element(coeffs) (the class of an integer
    polynomial) and the element operations add(a, b), sub(a, b),
    mul(a, b), pow(a, e), inv(a) and scale(a, n) (a times the integer
    n).  They also have the unreduced accumulators that
    monogenity.ore's ff_mul and ff_divmod sum products in, one per
    polynomial coefficient: lift(a) is the element a as an accumulator,
    fma(accs, i, q, ys) and fms(accs, i, q, ys) add and subtract q*ys[j]
    to and from accs[i + j] in place, and reduce(acc) is the element that
    acc stands for (acc is used up).
    """

    __slots__ = _fields = ("p", "modulus")

    def __init__(self, p: int, modulus: FpPoly):
        require_prime(p)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValidationError("residue field modulus must be monic of degree >= 1")
        super().__init__(p, modulus)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def order(self) -> int:
        return self.p**self.degree


class PrimeField(ResidueField):
    """F_p: elements are ints 0..p-1, and an int is its own accumulator."""

    __slots__ = ()
    zero = 0
    one = 1
    lift = int

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, e):
        return pow(a, e, self.p)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def scale(self, a, n):
        return a * n % self.p

    def element(self, coeffs):
        """The class of the integer polynomial coeffs: its value at the root
        -modulus[0] of the linear modulus, by Horner's rule mod p."""
        p, root, acc = self.p, -self.modulus[0], 0
        for c in reversed(coeffs):
            acc = (acc * root + c) % p
        return acc

    def fma(self, accs, i, q, ys):
        for j, y in enumerate(ys, i):
            accs[j] += q * y

    def fms(self, accs, i, q, ys):
        for j, y in enumerate(ys, i):
            accs[j] -= q * y

    def reduce(self, acc):
        return acc % self.p


# Bounded: a scan meets a new F_q for almost every new prime q of m, and an
# unbounded cache grew by one field per prime for the life of the process.
# 512 holds every field one classify call touches and the few hundred
# F_{p^k} that a batch of general polynomials reuses.
@functools.lru_cache(maxsize=512)
def residue_field(p: int, modulus: FpPoly) -> ResidueField:
    # the element representation follows the degree of the modulus
    if len(modulus) > 2:
        from .ore import ExtensionField  # analyze, scan and render meet F_p only

        return ExtensionField(p, modulus)
    return PrimeField(p, modulus)


def _rep_str(rep: FpPoly) -> str:
    # a nonzero element: ff_to_string skips the zero coefficients
    terms = []
    for i in range(len(rep) - 1, -1, -1):
        c = rep[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# polynomials over a residue field


def ff_make_monic(field: ResidueField, g) -> tuple:
    if not g or g[-1] == field.one:
        return g
    inv = field.inv(g[-1])
    return poly([field.mul(c, inv) for c in g])


def ff_to_string(field: ResidueField, g, var: str = "y") -> str:
    g = tuple(g)
    if not g:
        return "0"
    terms = []
    for i in range(len(g) - 1, -1, -1):
        c = g[i]
        if not c:
            continue
        if field.degree == 1:
            cs = str(c)
        else:
            cs = _rep_str(c)
            if "+" in cs or i > 0 and cs != "1":
                cs = f"({cs})"
        if i == 0:
            terms.append(cs)
        else:
            head = "" if cs == "1" else f"{cs}*"
            terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return " + ".join(terms)

