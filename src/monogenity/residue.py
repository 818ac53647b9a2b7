"""Residue fields F_q = F_p[x]/(phibar) and the polynomials over them.

This is the one finite-field layer: F_p[x] is the case q = p, with the
prime field residue_field(p, X).  A polynomial over F_q is a tuple of
elements in ascending degree order with a nonzero top coefficient; the
empty tuple is the zero polynomial.  An element of a field of degree 1
(F_q = F_p) is a plain int 0..p-1, so a polynomial over F_p, an FpPoly,
is a tuple of ints.  An element of a field of degree k >= 2 is its
reduced representative, an FpPoly of degree < k.  Elements do not
carry their field: it is the first argument of every ff_* function.

Arithmetic reduces once per output coefficient.  A field of degree
k >= 2, an ExtensionField, lives in monogenity.general, which classify
never imports.  It precomputes the fold rows x^j mod phibar,
j = k..2k-2: a product of two elements is a schoolbook product with
plain int coefficients, then one fold and one % p per coefficient.  ff_mul and ff_divmod sum
the products that make one polynomial coefficient in an unreduced
accumulator (an int over F_p) and reduce it once; the division reduces
its top remainder coefficient when it reads it.  Inverses come from
the extended Euclidean algorithm in F_p[x] (pow(a, -1, p) over F_p).
A modulus of degree >= 2 is irreducible when ff_factor over F_p
returns it whole.

ff_factor is the one factorization for every q, F_p included: the
power of y dividing the polynomial split off, then squarefree, then
distinct-degree, then Cantor-Zassenhaus equal-degree factorization
(von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).
"""

from __future__ import annotations

import functools

from .errors import InvariantError, ValidationError
from .intarith import require_prime
from .record import Record

# Cantor-Zassenhaus draws from random.Random(_SPLIT_SEED).  Factors are
# returned sorted, so no result depends on this value.
_SPLIT_SEED = 0
# A draw fails to split with probability at most 5/9 (q**d = 3), about
# 1/2 otherwise, so a split that needs more draws than this is a fault
# in the field arithmetic, not bad luck.
_SPLIT_DRAWS = 64

FpPoly = tuple[int, ...]

X: FpPoly = (0, 1)


def reduce_mod_p(coeffs, p: int) -> FpPoly:
    """Coefficientwise reduction of an integer polynomial into F_p[x].

    p is not checked: the residue field built over it checks.
    """
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class ResidueField(Record):
    """The field F_p[x]/(modulus), modulus monic irreducible over F_p.

    ResidueField(p, modulus) is a PrimeField when the modulus is linear
    and otherwise a monogenity.general.ExtensionField, imported then.
    Both have zero, one, element(coeffs) (the class of an integer
    polynomial) and the element operations add(a, b), sub(a, b),
    mul(a, b), pow(a, e), inv(a) and scale(a, n) (a times the integer
    n).  They also have the unreduced
    accumulators that ff_mul and ff_divmod sum products in, one per
    polynomial coefficient: lift(a) is the element a as an accumulator,
    fma(accs, i, q, ys) and fms(accs, i, q, ys) add and subtract q*ys[j]
    to and from accs[i + j] in place, and reduce(acc) is the element that
    acc stands for (acc is used up).
    """

    __slots__ = _fields = ("p", "modulus")

    def __new__(cls, p, modulus):
        # the element representation follows the degree; unpickling
        # calls the subclass itself
        if cls is ResidueField:
            if len(modulus) > 2:
                from .general import ExtensionField  # classify meets F_p only

                cls = ExtensionField
            else:
                cls = PrimeField
        return object.__new__(cls)

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
        """The class of the integer polynomial coeffs."""
        rep = ff_mod(self, reduce_mod_p(coeffs, self.p), self.modulus)
        return rep[0] if rep else 0

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
    return ResidueField(p, modulus)


def _rep_str(rep: FpPoly) -> str:
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
    return _residue_class(residue_field(p, reduce_mod_p(phi, p)), a, u)


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


def _product(field: ResidueField, a, b) -> list:
    """The coefficients of a*b as unreduced accumulators."""
    fma = field.fma
    out = [field.lift(field.zero) for _ in range(len(a) + len(b) - 1)]
    for i, c in enumerate(a):
        if c:
            fma(out, i, c, b)
    return out


def _divide(field: ResidueField, rem: list, b) -> tuple[tuple, tuple]:
    """Long division of the polynomial with accumulators rem by b.

    Each remainder coefficient is reduced once, the top one when the
    division reads it; a monic b needs no multiply by its inverse lead.
    Subtracting q*b leaves the top accumulator at 0 mod p, unread.
    """
    lb = len(b)
    reduce, fms, mul = field.reduce, field.fms, field.mul
    inv_lead = None if b[-1] == field.one else field.inv(b[-1])
    quo = [field.zero] * (len(rem) - lb + 1)
    for shift in range(len(rem) - lb, -1, -1):
        c = reduce(rem[shift + lb - 1])
        if c:
            q = c if inv_lead is None else mul(c, inv_lead)
            quo[shift] = q
            fms(rem, shift, q, b)
    return ff_normalize(quo), ff_normalize(list(map(reduce, rem[: lb - 1])))


def ff_mul(field: ResidueField, a, b) -> tuple:
    if not a or not b:
        return ()
    return ff_normalize(list(map(field.reduce, _product(field, a, b))))


def ff_divmod(field: ResidueField, a, b) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    return _divide(field, list(map(field.lift, a)), b)


def ff_mod(field: ResidueField, a, b) -> tuple:
    return ff_divmod(field, a, b)[1]


def ff_quo(field: ResidueField, a, b) -> tuple:
    return ff_divmod(field, a, b)[0]


def ff_mulmod(field: ResidueField, a, b, g) -> tuple:
    """a*b mod g, the product's coefficients reduced only by the division."""
    if not a or not b:
        return ()
    return _divide(field, _product(field, a, b), g)[1]


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
            result = ff_mulmod(field, result, base, modulus)
        base = ff_mulmod(field, base, base, modulus)
        e >>= 1
    return result


def ff_derivative(field: ResidueField, g) -> tuple:
    scale, p = field.scale, field.p
    return ff_normalize([scale(c, i % p) for i, c in enumerate(g)][1:])


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
    for _ in range(_SPLIT_DRAWS):
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
                acc = ff_mulmod(field, acc, acc, g)
                t = ff_add(field, t, acc)
            h = ff_gcd(field, t, g)
        else:
            b = ff_pow_mod(field, a, (field.order**d - 1) // 2, g)
            h = ff_gcd(field, ff_sub(field, b, (field.one,)), g)
        if 0 < ff_degree(h) < ff_degree(g):
            return _equal_degree(field, h, d, rng) + _equal_degree(
                field, ff_quo(field, g, h), d, rng
            )
    raise InvariantError(
        f"no equal-degree split of a degree-{ff_degree(g)} product of degree-{d} "
        f"factors over {field!r} in {_SPLIT_DRAWS} draws"
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
    # y^e, e the run of zero low coefficients, is split off first: Yun's
    # loop would walk its e multiplicities one gcd at a time
    e = next(i for i, c in enumerate(g) if c)
    found: dict[tuple, int] = {(field.zero, field.one): e} if e else {}
    parts: dict[int, tuple] = {}
    _squarefree_into(field, g[e:], 1, parts)
    rng = None
    for mult, part in parts.items():
        for block, d in _distinct_degree(field, part):
            if ff_degree(block) == d:
                irreducibles = [block]
            else:
                if rng is None:
                    import random  # only Cantor-Zassenhaus draws: analyze and scan never load it

                    rng = random.Random(_SPLIT_SEED)
                irreducibles = _equal_degree(field, block, d, rng)
            for irr in irreducibles:
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda item: (ff_degree(item[0]), item[0]))
