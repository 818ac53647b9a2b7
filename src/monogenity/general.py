"""The general engine: the code that analyze and scan never run, loaded on
first use.

classify meets only the bases x and x - m, at p and the primes of m, and
reads their expansions and valued points off closed forms.  Any other
monic f needs what is here: dense Z[x] arithmetic, the phi-adic expansion
at any monic base, valued points, the common-index test, Dedekind's
criterion, the lattice points that render draws, and the residue fields
F_(p^k) with k >= 2, for which ResidueField imports this module.
ore.analyze_prime and ore.phi_report, the analysis at any prime, call
the expansion and the valued points here.
"""

from __future__ import annotations

import enum

from . import ore
from .classify import pure_prime_analysis
from .errors import InvariantError, ValidationError
from .intarith import INFINITY, require_prime
from .polygon import NewtonPolygon, Side, ValuedPoint
from .residue import (
    X, ResidueField, ff_add, ff_divmod, ff_factor, ff_gcd, ff_mod, ff_mul, ff_sub, reduce_mod_p,
    residue_field,
)
from .zpoly import PhiExpansion, PureFieldParams, ZPoly, _poly_valuation, degree, is_monic, poly

# ---------------------------------------------------------------------------
# Z[x] and the phi-adic expansion


def add(a: ZPoly, b: ZPoly) -> ZPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return poly(out)


def sub(a: ZPoly, b: ZPoly) -> ZPoly:
    return add(a, tuple(-c for c in b))


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


def phi_expansion(f: ZPoly, phi: ZPoly) -> PhiExpansion:
    """Expansion of f by euclidean division against successive powers of phi.

    Implemented as a remainder tower (repeated division by phi).  For
    phi = x the coefficients are f's own, and for phi = x - c synthetic
    division gives the same output as the tower.
    """
    f = poly(f)
    phi = poly(phi)
    if degree(phi) < 1 or not is_monic(phi):
        raise ValidationError("expansion base must be monic of degree >= 1")
    if not f:
        return PhiExpansion(phi, ((),))
    if phi == (0, 1):
        coeffs = [(c,) if c else () for c in f]
    elif degree(phi) == 1:
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


# ---------------------------------------------------------------------------
# residue fields of degree k >= 2


class ExtensionField(ResidueField):
    """F_(p^k), k >= 2: elements are reduced FpPoly tuples of length <= k.

    An accumulator is a list of 2k - 1 unreduced ints, the coefficients
    of a polynomial in x of degree <= 2k - 2, which is what a product of
    two elements is.  reduce replaces each x^j, j = k..2k-2, by its fold
    row x^j mod modulus, then takes each of the k coefficients mod p
    once.  Sums, differences and inverses are ff_* operations over the
    prime field F_p, held on the field.
    """

    __slots__ = ("_prime", "_folds", "_width")
    zero = ()
    one = (1,)

    def __init__(self, p: int, modulus: FpPoly):
        super().__init__(p, modulus)
        k = self.degree
        prime = residue_field(p, X)
        if ff_factor(prime, self.modulus) != [(self.modulus, 1)]:
            raise ValidationError(f"residue field modulus {self.modulus} is reducible over F_{p}")
        rows = []
        row = tuple(-c % p for c in self.modulus[:k])  # x^k = x^k - modulus
        for _ in range(k - 1):
            rows.append(row)
            top = row[-1]  # x * row, with its x^k term folded back in
            row = tuple((c + top * r) % p for c, r in zip((0,) + row[:-1], rows[0]))
        # (j, the nonzero (i, coefficient of x^i) of the fold row of x^j)
        folds = tuple(
            (j, tuple((i, r) for i, r in enumerate(row) if r)) for j, row in enumerate(rows, k)
        )
        object.__setattr__(self, "_prime", prime)
        object.__setattr__(self, "_folds", folds)
        object.__setattr__(self, "_width", 2 * k - 1)

    def add(self, a, b):
        return ff_add(self._prime, a, b)

    def sub(self, a, b):
        return ff_sub(self._prime, a, b)

    def mul(self, a, b):
        acc = [0] * self._width
        self.fma([acc], 0, a, (b,))
        return self.reduce(acc)

    def pow(self, a, e):
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a):
        # extended Euclid in F_p[x]: s*a = r (mod modulus) along the remainders
        if not a:
            raise ZeroDivisionError("inverse of zero")
        prime, p = self._prime, self.p
        r0, r1 = self.modulus, a
        s0, s1 = (), (1,)
        while len(r1) > 1:
            q, r = ff_divmod(prime, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, ff_sub(prime, s0, ff_mul(prime, q, s1))
        c = pow(r1[0], -1, p)
        return tuple(s * c % p for s in s1)

    def scale(self, a, n):
        p = self.p
        return tuple(c * n % p for c in a) if n % p else ()

    def element(self, coeffs):
        """The class of the integer polynomial coeffs."""
        return ff_mod(self._prime, reduce_mod_p(coeffs, self.p), self.modulus)

    def lift(self, a):
        return list(a) + [0] * (self._width - len(a))

    def fma(self, accs, i, q, ys):
        _accumulate(accs, i, [(t, c) for t, c in enumerate(q) if c], ys)

    def fms(self, accs, i, q, ys):
        _accumulate(accs, i, [(t, -c) for t, c in enumerate(q) if c], ys)

    def reduce(self, acc):
        for j, terms in self._folds:
            c = acc[j]
            if c:
                for i, r in terms:
                    acc[i] += c * r
        p = self.p
        out = [c % p for c in acc[: len(self.modulus) - 1]]
        while out and not out[-1]:
            out.pop()
        return tuple(out)


def _accumulate(accs, i, terms, ys):
    # accs[i + j] += q * ys[j], q given by its nonzero terms (t, c)
    for j, y in enumerate(ys, i):
        acc = accs[j]
        for t, c in terms:
            for u, d in enumerate(y, t):
                acc[u] += c * d


# ---------------------------------------------------------------------------
# valued points and lattice points


def valued_points(expansion: PhiExpansion, p: int) -> list[ValuedPoint]:
    """The points (i, v_p(a_i)) for the nonzero expansion coefficients."""
    require_prime(p)
    points = []
    for i, a in enumerate(expansion.coefficients):
        if a:
            v = _poly_valuation(p, a)
            if v is not INFINITY:
                points.append(ValuedPoint(i, v))
    return points


def lattice_points(side: Side) -> list[ValuedPoint]:
    """The integral points on the side: start, start + (e, -h), ..."""
    return [
        ValuedPoint(side.start.i + k * side.e, side.start.v - k * side.h)
        for k in range(side.degree + 1)
    ]


def index_lattice_points(principal: NewtonPolygon) -> list[tuple[int, int]]:
    """The lattice points counted by phi_index (with deg_phi = 1), column by column."""
    out = []
    if principal.is_empty:
        return out
    first = principal.sides[0].start.i
    for side in principal.sides:
        lo = side.start.i if side.start.i == first else side.start.i + 1
        for x in range(max(1, lo), side.end.i + 1):
            top = (side.start.v * side.e - (x - side.start.i) * side.h) // side.e
            for y in range(1, top + 1):
                out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# the common-index test and Dedekind's criterion


def count_primes_with_residue_degree(shape: ore.SplittingShape, f: int) -> int:
    """Number of primes in the shape with residue degree f."""
    if f < 1:
        raise ValidationError("residue degree must be positive")
    return shape.count_residue_degree(f)


class ComIndexEvidence(str, enum.Enum):
    YES = "YES"
    NO_EVIDENCE = "NO_EVIDENCE"


def is_common_index_divisor(params: PureFieldParams, p: int) -> ComIndexEvidence:
    """One-directional test: YES proves p divides the index of every generator.

    NO_EVIDENCE does not certify monogenity.  A prime dividing neither
    params.p nor m does not divide the discriminant, so x**n - m is
    squarefree mod p, its degree-f factors are distinct monic
    irreducibles and P_f <= N_f: NO_EVIDENCE, with no polygon built.
    """
    require_prime(p)
    if p != params.p and p not in params.m_primes:
        return ComIndexEvidence.NO_EVIDENCE
    if pure_prime_analysis(params, p).comindex_witness() is not None:
        return ComIndexEvidence.YES
    return ComIndexEvidence.NO_EVIDENCE


def dedekind_divides_index(f: ZPoly, q: int) -> bool:
    """Dedekind's criterion: does q divide the index of Z[x]/(f)?

    Factor the reduction of f as the product of gbar_i**e_i, set
    gbar = prod gbar_i and hbar = prod gbar_i**(e_i - 1) = fbar / gbar,
    lift both monically, and test whether gcd((g*h - f)/q, gbar, hbar)
    is nonconstant over F_q.
    """
    prime_field = residue_field(q, X)
    f = poly(f)
    if not is_monic(f):
        raise ValidationError("Dedekind's criterion needs a monic polynomial")
    fbar = reduce_mod_p(f, q)
    gbar = (1,)
    for factor_bar, _ in ff_factor(prime_field, fbar):
        gbar = ff_mul(prime_field, gbar, factor_bar)
    hbar, rem = ff_divmod(prime_field, fbar, gbar)
    if rem:
        raise InvariantError("the radical of f mod q does not divide f mod q")
    product = mul(gbar, hbar)
    diff = sub(product, f)
    t_coeffs = []
    for c in diff:
        quo, rem = divmod(c, q)
        if rem:
            raise InvariantError("g*h - f is not divisible by q")
        t_coeffs.append(quo)
    tbar = reduce_mod_p(t_coeffs, q)
    common = ff_gcd(prime_field, ff_gcd(prime_field, tbar, gbar), hbar)
    return len(common) > 1
