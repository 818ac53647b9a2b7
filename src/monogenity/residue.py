"""Residue fields F_p[x]/(phibar) and polynomial arithmetic over them.

Elements carry their field, so the usual operators work; polynomials
over a residue field are tuples of elements in ascending degree order,
mirroring the F_p[x] conventions of fppoly.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from . import fppoly
from .errors import ValidationError
from .intarith import require_prime

_EXHAUSTIVE_LIMIT = 2**16


@dataclass(frozen=True)
class ResidueField:
    """The field F_p[x]/(modulus), modulus monic irreducible over F_p."""

    p: int
    modulus: fppoly.FpPoly

    def __post_init__(self):
        require_prime(self.p)
        if not fppoly.is_monic(self.modulus) or fppoly.degree(self.modulus) < 1:
            raise ValidationError("residue field modulus must be monic of degree >= 1")
        if not fppoly.is_irreducible(self.modulus, self.p):
            raise ValidationError(
                f"residue field modulus {self.modulus} is reducible over F_{self.p}"
            )

    @property
    def degree(self) -> int:
        return fppoly.degree(self.modulus)

    @property
    def order(self) -> int:
        return self.p**self.degree

    def element(self, coeffs) -> "FPhiElement":
        rep = fppoly.mod_(fppoly.normalize(coeffs, self.p), self.modulus, self.p)
        return FPhiElement(self, rep)

    def from_int(self, c: int) -> "FPhiElement":
        return self.element((c,))

    def zero(self) -> "FPhiElement":
        return FPhiElement(self, fppoly.ZERO)

    def one(self) -> "FPhiElement":
        return self.from_int(1)

    def gen(self) -> "FPhiElement":
        return self.element(fppoly.X)

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.degree):
            yield self.element(coeffs)

    def __repr__(self):
        return f"ResidueField(p={self.p}, modulus={self.modulus})"


# Bounded: a scan meets a new F_q for almost every new prime q of m, and an
# unbounded cache grew by one field per prime for the life of the process.
# 512 holds every field one classify call touches and the few hundred
# F_{p^k} that a batch of general polynomials reuses.
@functools.lru_cache(maxsize=512)
def residue_field(p: int, modulus: fppoly.FpPoly) -> ResidueField:
    return ResidueField(p, modulus)


@dataclass(frozen=True)
class FPhiElement:
    """An element of a residue field, stored as its reduced representative."""

    field: ResidueField
    rep: fppoly.FpPoly

    def _check(self, other: "FPhiElement") -> None:
        if self.field != other.field:
            raise ValidationError("cannot mix elements of different residue fields")

    def __add__(self, other):
        self._check(other)
        return FPhiElement(self.field, fppoly.add(self.rep, other.rep, self.field.p))

    def __sub__(self, other):
        self._check(other)
        return FPhiElement(self.field, fppoly.sub(self.rep, other.rep, self.field.p))

    def __neg__(self):
        return FPhiElement(self.field, fppoly.mul_scalar(self.rep, -1, self.field.p))

    def __mul__(self, other):
        self._check(other)
        prod = fppoly.mul(self.rep, other.rep, self.field.p)
        return FPhiElement(self.field, fppoly.mod_(prod, self.field.modulus, self.field.p))

    def inverse(self) -> "FPhiElement":
        if not self.rep:
            raise ZeroDivisionError("zero has no inverse in a residue field")
        # extended Euclid against the modulus
        p = self.field.p
        r0, r1 = self.field.modulus, self.rep
        s0, s1 = fppoly.ZERO, fppoly.ONE
        while r1:
            q, rem = fppoly.divmod_(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, fppoly.sub(s0, fppoly.mul(q, s1, p), p)
        inv_lead = pow(r0[-1], -1, p)
        rep = fppoly.mod_(fppoly.mul_scalar(s0, inv_lead, p), self.field.modulus, p)
        return FPhiElement(self.field, rep)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return bool(self.rep)

    def __str__(self):
        if self.field.degree == 1:
            return str(self.rep[0] if self.rep else 0)
        return _rep_str(self.rep)

    def __repr__(self):
        return f"FPhiElement({self}, mod {self.field.modulus} over F_{self.field.p})"


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


def _residue_class(field: ResidueField, a, u: int) -> FPhiElement:
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

FPhiPoly = tuple[FPhiElement, ...]


def ff_normalize(coeffs) -> FPhiPoly:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def ff_degree(g) -> int:
    return len(g) - 1


def ff_x(field: ResidueField) -> FPhiPoly:
    return (field.zero(), field.one())


def ff_add(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> FPhiPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ff_normalize(out)


def ff_sub(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> FPhiPoly:
    out = list(a) + [field.zero()] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return ff_normalize(out)


def ff_mul(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> FPhiPoly:
    if not a or not b:
        return ()
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
    return ff_normalize(out)


def ff_divmod(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> tuple[FPhiPoly, FPhiPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    inv_lead = b[-1].inverse()
    rem = list(a)
    quo = [field.zero()] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c:
            q = c * inv_lead
            quo[shift] = q
            for j, cb in enumerate(b):
                rem[shift + j] = rem[shift + j] - q * cb
    return ff_normalize(quo), ff_normalize(rem)


def ff_mod(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> FPhiPoly:
    return ff_divmod(field, a, b)[1]


def ff_quo(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> FPhiPoly:
    return ff_divmod(field, a, b)[0]


def ff_make_monic(field: ResidueField, g: FPhiPoly) -> FPhiPoly:
    if not g or g[-1] == field.one():
        return g
    inv = g[-1].inverse()
    return ff_normalize([c * inv for c in g])


def ff_gcd(field: ResidueField, a: FPhiPoly, b: FPhiPoly) -> FPhiPoly:
    while b:
        a, b = b, ff_mod(field, a, b)
    return ff_make_monic(field, a)


def ff_pow_mod(field: ResidueField, base: FPhiPoly, e: int, modulus: FPhiPoly) -> FPhiPoly:
    result = ff_mod(field, (field.one(),), modulus)
    base = ff_mod(field, base, modulus)
    while e:
        if e & 1:
            result = ff_mod(field, ff_mul(field, result, base), modulus)
        base = ff_mod(field, ff_mul(field, base, base), modulus)
        e >>= 1
    return result


def ff_derivative(field: ResidueField, g: FPhiPoly) -> FPhiPoly:
    out = []
    for i in range(1, len(g)):
        out.append(g[i] * field.from_int(i))
    return ff_normalize(out)


def is_squarefree_poly(g) -> bool:
    """True iff gcd(g, g') is a nonzero constant (g a nonzero FPhiPoly)."""
    g = ff_normalize(g)
    if not g:
        raise ValidationError("squarefreeness is undefined for the zero polynomial")
    field = g[0].field
    d = ff_gcd(field, g, ff_derivative(field, g))
    return ff_degree(d) == 0


def ff_to_string(g, var: str = "y") -> str:
    g = tuple(g)
    if not g:
        return "0"
    field = g[0].field
    terms = []
    for i in range(len(g) - 1, -1, -1):
        c = g[i]
        if not c:
            continue
        cs = str(c)
        if field.degree > 1 and ("+" in cs or i > 0 and cs != "1"):
            cs = f"({cs})"
        if i == 0:
            terms.append(cs)
        else:
            head = "" if cs == "1" else f"{cs}*"
            terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return " + ".join(terms)


def _ff_pth_root(field: ResidueField, g: FPhiPoly) -> FPhiPoly:
    # c -> c**(order/p) inverts Frobenius on the coefficients
    e = field.order // field.p
    return ff_normalize([c**e for c in g[:: field.p]])


def _ff_sff_into(field, f, scale, out):
    if ff_degree(f) < 1:
        return
    d = ff_derivative(field, f)
    if not d:
        _ff_sff_into(field, _ff_pth_root(field, f), scale * field.p, out)
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
        _ff_sff_into(field, _ff_pth_root(field, c), scale * field.p, out)


def _ff_distinct_degree(field, g):
    out = []
    x = ff_x(field)
    h = ff_mod(field, x, g)
    d = 0
    while ff_degree(g) >= 2 * (d + 1):
        d += 1
        h = ff_pow_mod(field, h, field.order, g)
        part = ff_gcd(field, ff_sub(field, h, x), g)
        if ff_degree(part) > 0:
            out.append((part, d))
            g = ff_quo(field, g, part)
            h = ff_mod(field, h, g)
    if ff_degree(g) > 0:
        out.append((g, ff_degree(g)))
    return out


def monic_polys_over(field: ResidueField, d: int):
    """All monic degree-d polynomials over the field, lexicographic in the
    coefficient representatives."""
    scalars = list(field.elements())
    for tail in itertools.product(scalars, repeat=d):
        yield tail + (field.one(),)


def _ff_equal_degree(field, g, d, rng):
    if ff_degree(g) == d:
        return [g]
    if field.order**d <= _EXHAUSTIVE_LIMIT:
        found = []
        for cand in monic_polys_over(field, d):
            if not ff_mod(field, g, cand):
                found.append(cand)
                g = ff_quo(field, g, cand)
                if ff_degree(g) == d:
                    found.append(g)
                    break
                if ff_degree(g) < d:
                    break
        return found
    while True:
        a = ff_normalize(
            [field.element([rng.randrange(field.p) for _ in range(field.degree)])
             for _ in range(ff_degree(g))]
        )
        if ff_degree(a) < 1:
            continue
        if field.p == 2:
            k = field.degree * d
            t = a
            acc = a
            for _ in range(k - 1):
                acc = ff_mod(field, ff_mul(field, acc, acc), g)
                t = ff_add(field, t, acc)
            h = ff_gcd(field, t, g)
        else:
            b = ff_pow_mod(field, a, (field.order**d - 1) // 2, g)
            h = ff_gcd(field, ff_sub(field, b, (field.one(),)), g)
        if 0 < ff_degree(h) < ff_degree(g):
            return _ff_equal_degree(field, h, d, rng) + _ff_equal_degree(
                field, ff_quo(field, g, h), d, rng
            )


def ff_factor(g, seed: int = 0) -> list[tuple[FPhiPoly, int]]:
    """Factor a monic polynomial over a residue field into irreducibles.

    Output is sorted by degree then by the coefficient representatives,
    hence deterministic for any seed.  Over a field of degree 1, which
    is F_p with each element represented by its value, the coefficients
    are factored as plain ints by fppoly, in the same order.
    """
    g = ff_normalize(g)
    if not g:
        raise ValidationError("cannot factor the zero polynomial")
    field = g[0].field
    if g[-1] != field.one():
        raise ValidationError("factorization requires a monic polynomial")
    if field.degree == 1:
        values = [c.rep[0] if c.rep else 0 for c in g]
        return [
            (tuple(FPhiElement(field, (c,) if c else fppoly.ZERO) for c in irr), mult)
            for irr, mult in fppoly._factor(values, field.p, seed)
        ]
    rng = random.Random(seed)
    parts: dict[int, FPhiPoly] = {}
    _ff_sff_into(field, g, 1, parts)
    found: dict[FPhiPoly, int] = {}
    for mult, part in parts.items():
        for block, d in _ff_distinct_degree(field, part):
            for irr in _ff_equal_degree(field, block, d, rng):
                found[irr] = found.get(irr, 0) + mult
    return sorted(
        found.items(),
        key=lambda item: (ff_degree(item[0]), tuple(c.rep for c in item[0])),
    )
