"""The reference engine: Ore's first-order analysis of any monic f, and
all the code that the pure layer never runs.

classify meets only the bases x and x - m, at p and the primes of m, and
reads their expansions, valued points and reports off closed forms.  Any
other monic f needs what is here: dense Z[x] arithmetic, the phi-adic
expansion at any monic base, polynomials over any residue field with
their factorization, the residue fields F_(p^k) with k >= 2, valued
points, the lower convex hull, residual polynomials read off a dense
expansion, and Dedekind's criterion.  For a monic irreducible f, a prime
p and a base phi whose reduction is an irreducible factor of the
reduction of f, phi_report expands f at phi, builds the principal
polygon, and attaches and factors the residual polynomials;
analyze_prime reports at a lift of each factor of the reduction of f.
The reports are monogenity.polygon's records, which classify builds in
closed form without loading this module; the tests hold those closed
forms to this pipeline.  residue_field (for a modulus of degree >= 2)
and --verify load it when they need it; analyze, scan and render never
do.  It imports nothing above polygon, residue, zpoly and intarith.

Arithmetic over F_q reduces once per output coefficient.  ff_mul and
ff_divmod sum the products that make one polynomial coefficient in an
unreduced accumulator of the field (an int over F_p) and reduce it
once; the division reduces its top remainder coefficient when it reads
it.  An ExtensionField precomputes the fold rows x^j mod phibar,
j = k..2k-2: a product of two elements is a schoolbook product with
plain int coefficients, then one fold and one % p per coefficient.
Inverses come from the extended Euclidean algorithm in F_p[x]
(pow(a, -1, p) over F_p).  A modulus of degree >= 2 is irreducible when
ff_factor over F_p returns it whole.

ff_factor is the one factorization for every q, F_p included: the
power of y dividing the polynomial split off, then squarefree, then
distinct-degree, then Cantor-Zassenhaus equal-degree factorization
(von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).
"""

from __future__ import annotations

from . import polygon
from .errors import InvariantError, ValidationError
from .intarith import INFINITY, _valuation, require_prime
from .polygon import index_lower_bound, splitting_shape  # read on the engine's reports as ore.*
from .record import Record
from .residue import (
    X, FpPoly, ResidueField, ff_make_monic, reduce_mod_p, residue_field,
)
from .zpoly import ZPoly, degree, poly

# Cantor-Zassenhaus draws from random.Random(_SPLIT_SEED).  Factors are
# returned sorted, so no result depends on this value.
_SPLIT_SEED = 0
# A draw fails to split with probability at most 5/9 (q**d = 3), about
# 1/2 otherwise, so a split that needs more draws than this is a fault
# in the field arithmetic, not bad luck.
_SPLIT_DRAWS = 64

# ---------------------------------------------------------------------------
# Z[x] and the phi-adic expansion


def is_monic(f: ZPoly) -> bool:
    return bool(f) and f[-1] == 1


def _poly_valuation(p: int, f: ZPoly):
    """Gauss valuation: minimum of the coefficient valuations (INFINITY for 0),
    for a p the caller has already checked to be prime."""
    return min(_valuation(p, c) for c in f) if f else INFINITY


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


class PhiExpansion(Record):
    """f written as sum of coefficients[i] * phi**i with deg coefficients[i] < deg phi:
    PhiExpansion(phi, coefficients), both ZPoly tuples."""

    __slots__ = _fields = ("phi", "coefficients")

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
    return PhiExpansion(phi, tuple(coeffs))


# ---------------------------------------------------------------------------
# polynomials over a residue field and their factorization


def ff_add(field: ResidueField, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    add = field.add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return poly(out)


def ff_sub(field: ResidueField, a, b) -> tuple:
    sub = field.sub
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = sub(out[i], c)
    return poly(out)


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
    return poly(quo), poly(list(map(reduce, rem[: lb - 1])))


def ff_mul(field: ResidueField, a, b) -> tuple:
    if not a or not b:
        return ()
    return poly(list(map(field.reduce, _product(field, a, b))))


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
    return poly([scale(c, i % p) for i, c in enumerate(g)][1:])


def ff_pth_root(field: ResidueField, g) -> tuple:
    """The p-th root of a polynomial whose derivative is 0: only exponents
    divisible by p occur, and c -> c**(q/p) inverts Frobenius on F_q."""
    e = field.order // field.p
    return poly([field.pow(c, e) for c in g[:: field.p]])


def _squarefree_into(field: ResidueField, f, scale: int, out: dict) -> None:
    """Squarefree factorization of a monic f: out[i * scale] becomes the
    product of the irreducible factors that divide f exactly i times."""
    if degree(f) < 1:
        return
    d = ff_derivative(field, f)
    if not d:
        _squarefree_into(field, ff_pth_root(field, f), scale * field.p, out)
        return
    c = ff_gcd(field, f, d)
    w = ff_quo(field, f, c)
    i = 1
    while degree(w) > 0:
        y = ff_gcd(field, w, c)
        z = ff_quo(field, w, y)
        if degree(z) > 0:
            key = i * scale
            out[key] = ff_mul(field, out[key], z) if key in out else z
        w = y
        c = ff_quo(field, c, y)
        i += 1
    if degree(c) > 0:
        _squarefree_into(field, ff_pth_root(field, c), scale * field.p, out)


def _distinct_degree(field: ResidueField, g) -> list[tuple[tuple, int]]:
    """Split a squarefree monic g into (product of its degree-d factors, d) parts."""
    out = []
    y = (field.zero, field.one)
    h = ff_mod(field, y, g)
    d = 0
    while degree(g) >= 2 * (d + 1):
        d += 1
        h = ff_pow_mod(field, h, field.order, g)
        part = ff_gcd(field, ff_sub(field, h, y), g)
        if degree(part) > 0:
            out.append((part, d))
            g = ff_quo(field, g, part)
            h = ff_mod(field, h, g)
    if degree(g) > 0:
        out.append((g, degree(g)))
    return out


def _equal_degree(field: ResidueField, g, d: int, rng: random.Random) -> list[tuple]:
    """Split g, a product of distinct monic irreducibles of degree d, into them."""
    if degree(g) == d:
        return [g]
    for _ in range(_SPLIT_DRAWS):
        a = poly(
            [field.element([rng.randrange(field.p) for _ in range(field.degree)])
             for _ in range(degree(g))]
        )
        if degree(a) < 1:
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
        if 0 < degree(h) < degree(g):
            return _equal_degree(field, h, d, rng) + _equal_degree(
                field, ff_quo(field, g, h), d, rng
            )
    raise InvariantError(
        f"no equal-degree split of a degree-{degree(g)} product of degree-{d} "
        f"factors over {field!r} in {_SPLIT_DRAWS} draws"
    )


def ff_factor(field: ResidueField, g) -> list[tuple[tuple, int]]:
    """Factor a monic polynomial over the field into irreducibles.

    Returns (irreducible monic factor, multiplicity) pairs sorted by
    degree, then by coefficients, so the result does not depend on the
    random choices of the equal-degree split.
    """
    g = poly(g)
    if not g:
        raise ValidationError("cannot factor the zero polynomial")
    if g[-1] != field.one:
        raise ValidationError("factorization requires a monic polynomial")
    if degree(g) == 1:
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
            if degree(block) == d:
                irreducibles = [block]
            else:
                if rng is None:
                    import random  # only Cantor-Zassenhaus draws: analyze and scan never load it

                    rng = random.Random(_SPLIT_SEED)
                irreducibles = _equal_degree(field, block, d, rng)
            for irr in irreducibles:
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda item: (degree(item[0]), item[0]))


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
        return poly([c % p for c in acc[: len(self.modulus) - 1]])


def _accumulate(accs, i, terms, ys):
    # accs[i + j] += q * ys[j], q given by its nonzero terms (t, c)
    for j, y in enumerate(ys, i):
        acc = accs[j]
        for t, c in terms:
            for u, d in enumerate(y, t):
                acc[u] += c * d


# ---------------------------------------------------------------------------
# valued points, the lower convex hull and residual polynomials


def valued_points(expansion: PhiExpansion, p: int) -> list[polygon.ValuedPoint]:
    """The points (i, v_p(a_i)) for the nonzero expansion coefficients."""
    require_prime(p)
    points = []
    for i, a in enumerate(expansion.coefficients):
        if a:
            points.append(polygon.ValuedPoint(i, _poly_valuation(p, a)))
    return points


def _dedupe(points) -> list[polygon.ValuedPoint]:
    best: dict[int, int] = {}
    for pt in points:
        i, v = pt
        if i not in best or v < best[i]:
            best[i] = v
    return [polygon.ValuedPoint(i, v) for i, v in sorted(best.items())]


def lower_convex_hull(points) -> polygon.NewtonPolygon:
    """Lower boundary convex envelope; collinear points merge into one side."""
    pts = _dedupe(points)
    if not pts:
        raise ValidationError("hull of an empty point set")
    hull: list[polygon.ValuedPoint] = []
    for pt in pts:
        # pop while the previous slope is >= the new one (merges collinear)
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b.v - a.v) * (pt.i - b.i) >= (pt.v - b.v) * (b.i - a.i):
                hull.pop()
            else:
                break
        hull.append(pt)
    sides = tuple(polygon.Side(a, b) for a, b in zip(hull, hull[1:]))
    return polygon.NewtonPolygon(sides)


def residue_class(field: ResidueField, a, u: int):
    """Class of a(beta)/p**u in field = F_phi, beta a root of the reduction
    of phi: (a div p**u) reduced mod (p, phi), where every coefficient of
    the integer polynomial a must be divisible by p**u."""
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


def residual_polynomial(expansion: PhiExpansion, p: int, phi: ZPoly, side: polygon.Side) -> tuple:
    """Residue classes of the on-side coefficients of a dense expansion, as
    the coefficient tuple over F_phi that SideAnalysis.residual holds.

    Raises if the side does not match the expansion (endpoint valuations
    off, or endpoints on zero coefficients).  Building F_phi checks p.
    classify's closed forms read their digits off the binomial lemma.
    """
    if tuple(phi) != tuple(expansion.phi):
        raise ValidationError("expansion was taken with a different base")
    if side.h < 0:
        raise ValidationError("residual polynomials do not attach to ascending sides")
    field = residue_field(p, reduce_mod_p(phi, p))
    coeffs = []
    for k in range(side.degree + 1):
        pos = side.start.i + k * side.e
        u = side.start.v - k * side.h
        a = expansion.coefficient(pos)
        va = _poly_valuation(p, a)
        if va < u:
            raise ValidationError(
                f"point ({pos}, {va}) lies below the side; inconsistent pairing"
            )
        coeffs.append(field.zero if va > u else residue_class(field, a, u))
    if not coeffs[0] or not coeffs[-1]:
        raise ValidationError("side endpoints must lie on the polygon")
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# the reference pipeline


def phi_report(f: ZPoly, p: int, phi: ZPoly) -> polygon.PhiReport:
    """Run the polygon pipeline for one expansion base phi.

    The reduction of phi must be irreducible and divide the reduction
    of f.  The multiplicity of that factor is read off the valued
    points: it is the first abscissa whose coefficient is a p-adic unit.
    """
    f = poly(f)
    phi = poly(phi)
    if not is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    # F_phi exists only for a prime p and an irreducible reduction of phi;
    # residual_polynomial then finds the field built
    residue_field(p, reduce_mod_p(phi, p))
    expansion = phi_expansion(f, phi)
    abscissas, valuations = zip(*valued_points(expansion, p))
    # valued points skip zero coefficients, so a_0 = 0 leaves abscissa 0 out
    if abscissas[0] and degree(f) != degree(phi):
        raise ValidationError(
            "expansion base divides f over Z; the analysis needs an irreducible f"
        )
    return _phi_report(p, expansion, (abscissas, valuations))


def analyze_prime(f: ZPoly, p: int) -> list[polygon.PhiReport]:
    """One PhiReport per irreducible factor of the reduction of f mod p.

    Expansion bases are the canonical monic lifts with coefficients in
    0..p-1, in the canonical factor order.  Building F_p checks p.
    """
    prime_field = residue_field(p, X)
    f = poly(f)
    if not is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    return [phi_report(f, p, phibar) for phibar, _ in ff_factor(prime_field, reduce_mod_p(f, p))]


def _phi_report(p: int, expansion: PhiExpansion, valued) -> polygon.PhiReport:
    """phi_report() for a base and a dense expansion already checked; valued
    is the columns (abscissas, valuations)."""
    phi = poly(expansion.phi)
    abscissas, valuations = valued
    try:
        multiplicity = abscissas[valuations.index(0)]
    except ValueError:
        raise InvariantError("no unit coefficient in the expansion of a monic polynomial") from None
    if multiplicity == 0:
        raise ValidationError("expansion base does not divide the reduction of f")
    hull = lower_convex_hull(zip(abscissas, valuations))
    principal = polygon.principal_part(hull)

    if not principal.is_empty:
        length = sum(s.length for s in principal.sides)
        if length != multiplicity:
            raise InvariantError(
                f"principal polygon spans {length}, expected multiplicity {multiplicity}"
            )
    elif multiplicity != 1:
        raise InvariantError("empty principal polygon with multiplicity > 1")

    field = residue_field(p, reduce_mod_p(phi, p))
    sides = []
    for side in principal.sides:
        residual = residual_polynomial(expansion, p, phi, side)
        factors = tuple(ff_factor(field, ff_make_monic(field, residual)))
        if sum(degree(psi) * mult for psi, mult in factors) != side.degree:
            raise InvariantError("residual factorization does not match the side degree")
        sides.append(polygon.SideAnalysis(side, field, residual, factors))

    index = polygon.phi_index(principal, degree(phi))
    regular = all(s.squarefree for s in sides)
    return polygon.PhiReport(phi, multiplicity, valued, hull, tuple(sides), index, regular)


# ---------------------------------------------------------------------------
# Dedekind's criterion


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
