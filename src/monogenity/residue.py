"""Residue fields F_q = F_p[x]/(phibar) and the polynomials over them.

An element of a field of degree 1 (F_q = F_p) is a plain int 0..p-1.
An element of a field of degree k >= 2 is its reduced representative,
an FpPoly tuple, with fppoly's F_p[x] arithmetic modulo the field's
modulus as its arithmetic.  Elements do not carry their field: it is
the first argument of every ff_* function.  A polynomial over F_q is a
tuple of elements in ascending degree order with a nonzero top
coefficient, as in fppoly, so a polynomial over F_p is an FpPoly.

ff_factor is the one factorization for every q, F_p included:
squarefree, then distinct-degree, then Cantor-Zassenhaus equal-degree
factorization (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 14).
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Callable

from . import fppoly
from .errors import ValidationError
from .intarith import require_prime

# Cantor-Zassenhaus draws from random.Random(_SPLIT_SEED).  Factors are
# returned sorted, so no result depends on this value.
_SPLIT_SEED = 0


def _op():
    return dataclasses.field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ResidueField:
    """The field F_p[x]/(modulus), modulus monic irreducible over F_p.

    zero, one and the element operations add(a, b), sub(a, b), mul(a, b)
    and pow(a, e) are set on construction for the element representation
    of the field's degree.
    """

    p: int
    modulus: fppoly.FpPoly
    zero: object = _op()
    one: object = _op()
    add: Callable = _op()
    sub: Callable = _op()
    mul: Callable = _op()
    pow: Callable = _op()

    def __post_init__(self):
        require_prime(self.p)
        if not fppoly.is_monic(self.modulus) or fppoly.degree(self.modulus) < 1:
            raise ValidationError("residue field modulus must be monic of degree >= 1")
        if not fppoly.is_irreducible(self.modulus, self.p):
            raise ValidationError(
                f"residue field modulus {self.modulus} is reducible over F_{self.p}"
            )
        p, modulus = self.p, self.modulus
        if self.degree == 1:
            ops = {
                "zero": 0,
                "one": 1,
                "add": lambda a, b: (a + b) % p,
                "sub": lambda a, b: (a - b) % p,
                "mul": lambda a, b: a * b % p,
                "pow": lambda a, e: pow(a, e, p),
            }
        else:
            ops = {
                "zero": fppoly.ZERO,
                "one": fppoly.ONE,
                "add": lambda a, b: fppoly.add(a, b, p),
                "sub": lambda a, b: fppoly.sub(a, b, p),
                "mul": lambda a, b: fppoly.mod_(fppoly.mul(a, b, p), modulus, p),
                "pow": lambda a, e: fppoly.pow_mod(a, e, modulus, p),
            }
        for name, value in ops.items():
            object.__setattr__(self, name, value)

    @property
    def degree(self) -> int:
        return fppoly.degree(self.modulus)

    @property
    def order(self) -> int:
        return self.p**self.degree

    def element(self, coeffs):
        """The class of the integer polynomial coeffs."""
        rep = fppoly.mod_(fppoly.normalize(coeffs, self.p), self.modulus, self.p)
        if self.degree == 1:
            return rep[0] if rep else 0
        return rep

    def inv(self, a):
        """Inverse of a nonzero element, a**(q - 2)."""
        return a if a == self.one else self.pow(a, self.order - 2)


# Bounded: a scan meets a new F_q for almost every new prime q of m, and an
# unbounded cache grew by one field per prime for the life of the process.
# 512 holds every field one classify call touches and the few hundred
# F_{p^k} that a batch of general polynomials reuses.
@functools.lru_cache(maxsize=512)
def residue_field(p: int, modulus: fppoly.FpPoly) -> ResidueField:
    return ResidueField(p, modulus)


def _rep_str(rep: fppoly.FpPoly) -> str:
    if not rep:
        return "0"
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


def residue_class(a, p: int, phi, u: int):
    """Class of a(beta)/p**u in F_phi, beta a root of the reduction of phi.

    Every coefficient of the integer polynomial a must be divisible by
    p**u; the result is (a div p**u) reduced mod (p, phi).  Building
    the field checks p.
    """
    if u < 0:
        raise ValidationError("valuation shift must be a natural number")
    return _residue_class(residue_field(p, fppoly.normalize(phi, p)), a, u)


def _residue_class(field: ResidueField, a, u: int):
    # residue_class() in a field the caller already holds
    p = field.p
    pu = p**u
    divided = []
    for c in a:
        q, rem = divmod(c, pu)
        if rem:
            raise ValidationError(
                f"coefficient {c} is not divisible by {p}**{u} in residue_class"
            )
        divided.append(q)
    return field.element(divided)


# ---------------------------------------------------------------------------
# polynomials over a residue field


def ff_normalize(coeffs) -> tuple:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def ff_degree(g) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(g) - 1


def ff_add(field: ResidueField, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    add = field.add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return ff_normalize(out)


def ff_sub(field: ResidueField, a, b) -> tuple:
    sub = field.sub
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = sub(out[i], c)
    return ff_normalize(out)


def ff_mul(field: ResidueField, a, b) -> tuple:
    if not a or not b:
        return ()
    add, mul = field.add, field.mul
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = add(out[i + j], mul(ca, cb))
    return ff_normalize(out)


def ff_divmod(field: ResidueField, a, b) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    sub, mul = field.sub, field.mul
    inv_lead = field.inv(b[-1])
    rem = list(a)
    quo = [field.zero] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c:
            q = mul(c, inv_lead)
            quo[shift] = q
            for j, cb in enumerate(b):
                rem[shift + j] = sub(rem[shift + j], mul(q, cb))
    return ff_normalize(quo), ff_normalize(rem)


def ff_mod(field: ResidueField, a, b) -> tuple:
    return ff_divmod(field, a, b)[1]


def ff_quo(field: ResidueField, a, b) -> tuple:
    return ff_divmod(field, a, b)[0]


def ff_make_monic(field: ResidueField, g) -> tuple:
    if not g or g[-1] == field.one:
        return g
    inv = field.inv(g[-1])
    return ff_normalize([field.mul(c, inv) for c in g])


def ff_gcd(field: ResidueField, a, b) -> tuple:
    """Monic greatest common divisor."""
    while b:
        a, b = b, ff_mod(field, a, b)
    return ff_make_monic(field, a)


def ff_pow_mod(field: ResidueField, base, e: int, modulus) -> tuple:
    result = ff_mod(field, (field.one,), modulus)
    base = ff_mod(field, base, modulus)
    while e:
        if e & 1:
            result = ff_mod(field, ff_mul(field, result, base), modulus)
        base = ff_mod(field, ff_mul(field, base, base), modulus)
        e >>= 1
    return result


def ff_derivative(field: ResidueField, g) -> tuple:
    return ff_normalize([field.mul(field.element((i,)), c) for i, c in enumerate(g)][1:])


def ff_pth_root(field: ResidueField, g) -> tuple:
    """The p-th root of a polynomial whose derivative is 0: only exponents
    divisible by p occur, and c -> c**(q/p) inverts Frobenius on F_q."""
    e = field.order // field.p
    return ff_normalize([field.pow(c, e) for c in g[:: field.p]])


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


def _squarefree_into(field: ResidueField, f, scale: int, out: dict) -> None:
    """Squarefree factorization of a monic f: out[i * scale] becomes the
    product of the irreducible factors that divide f exactly i times."""
    if ff_degree(f) < 1:
        return
    d = ff_derivative(field, f)
    if not d:
        _squarefree_into(field, ff_pth_root(field, f), scale * field.p, out)
        return
    c = ff_gcd(field, f, d)
    w = ff_quo(field, f, c)
    i = 1
    while ff_degree(w) > 0:
        y = ff_gcd(field, w, c)
        z = ff_quo(field, w, y)
        if ff_degree(z) > 0:
            key = i * scale
            out[key] = ff_mul(field, out[key], z) if key in out else z
        w = y
        c = ff_quo(field, c, y)
        i += 1
    if ff_degree(c) > 0:
        _squarefree_into(field, ff_pth_root(field, c), scale * field.p, out)


def _distinct_degree(field: ResidueField, g) -> list[tuple[tuple, int]]:
    """Split a squarefree monic g into (product of its degree-d factors, d) parts."""
    out = []
    y = (field.zero, field.one)
    h = ff_mod(field, y, g)
    d = 0
    while ff_degree(g) >= 2 * (d + 1):
        d += 1
        h = ff_pow_mod(field, h, field.order, g)
        part = ff_gcd(field, ff_sub(field, h, y), g)
        if ff_degree(part) > 0:
            out.append((part, d))
            g = ff_quo(field, g, part)
            h = ff_mod(field, h, g)
    if ff_degree(g) > 0:
        out.append((g, ff_degree(g)))
    return out


def _equal_degree(field: ResidueField, g, d: int, rng: random.Random) -> list[tuple]:
    """Split g, a product of distinct monic irreducibles of degree d, into them."""
    if ff_degree(g) == d:
        return [g]
    while True:
        a = ff_normalize(
            [field.element([rng.randrange(field.p) for _ in range(field.degree)])
             for _ in range(ff_degree(g))]
        )
        if ff_degree(a) < 1:
            continue
        if field.p == 2:
            # the trace of a from F_(2^(kd)) down to F_2
            t = acc = a
            for _ in range(field.degree * d - 1):
                acc = ff_mod(field, ff_mul(field, acc, acc), g)
                t = ff_add(field, t, acc)
            h = ff_gcd(field, t, g)
        else:
            b = ff_pow_mod(field, a, (field.order**d - 1) // 2, g)
            h = ff_gcd(field, ff_sub(field, b, (field.one,)), g)
        if 0 < ff_degree(h) < ff_degree(g):
            return _equal_degree(field, h, d, rng) + _equal_degree(
                field, ff_quo(field, g, h), d, rng
            )


def ff_factor(field: ResidueField, g) -> list[tuple[tuple, int]]:
    """Factor a monic polynomial over the field into irreducibles.

    Returns (irreducible monic factor, multiplicity) pairs sorted by
    degree, then by coefficients, so the result does not depend on the
    random choices of the equal-degree split.
    """
    g = ff_normalize(g)
    if not g:
        raise ValidationError("cannot factor the zero polynomial")
    if g[-1] != field.one:
        raise ValidationError("factorization requires a monic polynomial")
    if ff_degree(g) == 1:
        return [(g, 1)]
    parts: dict[int, tuple] = {}
    _squarefree_into(field, g, 1, parts)
    rng = None
    found: dict[tuple, int] = {}
    for mult, part in parts.items():
        for block, d in _distinct_degree(field, part):
            if ff_degree(block) == d:
                irreducibles = [block]
            else:
                if rng is None:
                    rng = random.Random(_SPLIT_SEED)
                irreducibles = _equal_degree(field, block, d, rng)
            for irr in irreducibles:
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda item: (ff_degree(item[0]), item[0]))
