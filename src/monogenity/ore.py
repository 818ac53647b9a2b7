"""Regularity analysis, the index lower bound, and splitting shapes.

For a monic irreducible f, a prime p and a base phi whose reduction
is an irreducible factor of the reduction of f, phi_report runs the
first-order pipeline: expand f at phi, build the principal polygon,
attach and factor the residual polynomials.  analyze_prime factors the
reduction of f and reports at a lift of each factor; both take the
expansion and its valued points from monogenity.general, loaded on
their first call.  The index bound and (in the regular case) the shape
of the factorization of p in the ring of integers are read off the
reports.
"""

from __future__ import annotations

from . import polygon, zpoly
from .errors import InvariantError, ValidationError
from .record import TupleRecord
from .residue import (
    X,
    ff_degree,
    ff_factor,
    ff_make_monic,
    ff_to_string,
    reduce_mod_p,
    residue_field,
)


class SideAnalysis(TupleRecord):
    """One principal side together with its residual data."""

    side: polygon.Side
    residual: polygon.ResidualPolynomial
    factors: tuple[tuple[tuple, int], ...]  # over residual.field

    @property
    def squarefree(self) -> bool:
        return all(mult == 1 for _, mult in self.factors)

    def factor_strings(self) -> tuple[str, ...]:
        out = []
        for psi, mult in self.factors:
            text = ff_to_string(self.residual.field, psi)
            out.append(text if mult == 1 else f"({text})^{mult}")
        return tuple(out)


class PhiReport(TupleRecord):
    """Everything the polygon machinery knows about one factor of the reduction;
    valued holds the valued points (i, v_p(a_i)) as the columns (abscissas,
    valuations) or as the PureShiftExpansion whose valuations() gives them
    when columns, valuations or points is read."""

    phi: zpoly.ZPoly
    multiplicity: int
    valued: "zpoly.PureShiftExpansion | tuple"
    polygon: polygon.NewtonPolygon
    principal: polygon.NewtonPolygon
    sides: tuple[SideAnalysis, ...]
    index: int
    regular: bool

    @property
    def columns(self) -> tuple:
        valued = self.valued
        if isinstance(valued, zpoly.PureShiftExpansion):
            return range(valued.params.degree + 1), valued.valuations()
        return valued

    @property
    def valuations(self) -> tuple[int, ...]:
        return self.columns[1]

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.columns))

    @property
    def phi_degree(self) -> int:
        return zpoly.degree(self.phi)


class IndexBound(TupleRecord):
    """Lower bound for v_p of the index; exact when the analysis is regular."""

    value: int
    exact: bool


class _NotRegular:
    __slots__ = ()

    def __repr__(self):
        return "NOT_REGULAR"

    def __bool__(self):
        return False


NOT_REGULAR = _NotRegular()


class SplittingShape(TupleRecord):
    """Multiset of (ramification index, residue degree) pairs, canonically sorted."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "SplittingShape":
        return cls(tuple(sorted(pairs)))

    def total_degree(self) -> int:
        return sum(e * f for e, f in self.pairs)

    def count_residue_degree(self, f: int) -> int:
        return sum(1 for _, fi in self.pairs if fi == f)

    def residue_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({f for _, f in self.pairs}))

    def __str__(self):
        return ",".join(f"{e}:{f}" for e, f in self.pairs)


def phi_report(f: zpoly.ZPoly, p: int, phi: zpoly.ZPoly) -> PhiReport:
    """Run the polygon pipeline for one expansion base phi.

    The reduction of phi must be irreducible and divide the reduction
    of f.  The multiplicity of that factor is read off the valued
    points: it is the first abscissa whose coefficient is a p-adic unit.
    """
    from .general import phi_expansion, valued_points  # the dense path: never reached from classify

    f = zpoly.poly(f)
    phi = zpoly.poly(phi)
    if not zpoly.is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    # F_phi exists only for a prime p and an irreducible reduction of phi;
    # residual_polynomial then finds the field built
    residue_field(p, reduce_mod_p(phi, p))
    expansion = phi_expansion(f, phi)
    abscissas, valuations = zip(*valued_points(expansion, p))
    # valued points skip zero coefficients, so a_0 = 0 leaves abscissa 0 out
    if abscissas[0] and zpoly.degree(f) != zpoly.degree(phi):
        raise ValidationError(
            "expansion base divides f over Z; the analysis needs an irreducible f"
        )
    return _phi_report(p, expansion, (abscissas, valuations))


def analyze_prime(f: zpoly.ZPoly, p: int) -> list[PhiReport]:
    """One PhiReport per irreducible factor of the reduction of f mod p.

    Expansion bases are the canonical monic lifts with coefficients in
    0..p-1, in the canonical factor order.  Building F_p checks p.
    """
    prime_field = residue_field(p, X)
    f = zpoly.poly(f)
    if not zpoly.is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    return [phi_report(f, p, phibar) for phibar, _ in ff_factor(prime_field, reduce_mod_p(f, p))]


def _phi_report(p: int, expansion, valued) -> PhiReport:
    """phi_report() for a base and an expansion already checked, as classify's
    closed form at t | m is; valued is the columns (abscissas, valuations)."""
    phi = zpoly.poly(expansion.phi)
    abscissas, valuations = valued
    try:
        multiplicity = abscissas[valuations.index(0)]
    except ValueError:
        raise InvariantError("no unit coefficient in the expansion of a monic polynomial") from None
    if multiplicity == 0:
        raise ValidationError("expansion base does not divide the reduction of f")
    hull = polygon.lower_convex_hull(zip(abscissas, valuations))
    principal = polygon.principal_part(hull)

    if not principal.is_empty:
        length = sum(s.length for s in principal.sides)
        if length != multiplicity:
            raise InvariantError(
                f"principal polygon spans {length}, expected multiplicity {multiplicity}"
            )
    elif multiplicity != 1:
        raise InvariantError("empty principal polygon with multiplicity > 1")

    sides = []
    for side in principal.sides:
        residual = polygon.residual_polynomial(expansion, p, phi, side)
        monic = ff_make_monic(residual.field, residual.as_poly())
        factors = tuple(ff_factor(residual.field, monic))
        if sum(ff_degree(psi) * mult for psi, mult in factors) != side.degree:
            raise InvariantError("residual factorization does not match the side degree")
        sides.append(SideAnalysis(side, residual, factors))

    index = polygon.phi_index(principal, zpoly.degree(phi))
    regular = all(s.squarefree for s in sides)
    return PhiReport(phi, multiplicity, valued, hull, principal, tuple(sides), index, regular)


def index_lower_bound(reports) -> IndexBound:
    """Sum of the per-factor indices; exact iff every report is regular."""
    return IndexBound(sum(r.index for r in reports), all(r.regular for r in reports))


def splitting_shape(reports):
    """Shape of the prime factorization, or NOT_REGULAR.

    In the regular case every side of slope -h/e contributes one prime
    (e, deg(phi) * deg(psi)) per irreducible residual factor psi; a
    factor of the reduction that equals f itself carries an empty
    principal polygon and contributes the single unramified prime
    (1, deg(phi)).  The fundamental identity sum(e*f) = deg(f) is
    checked and its failure raises, since it would indicate a bug.
    """
    pairs = []
    total_degree = 0
    for report in reports:
        total_degree += report.phi_degree * report.multiplicity
        if not report.regular:
            return NOT_REGULAR
        if report.principal.is_empty:
            pairs.append((1, report.phi_degree))
            continue
        for analysis in report.sides:
            for psi, _ in analysis.factors:
                pairs.append((analysis.side.e, report.phi_degree * ff_degree(psi)))
    shape = SplittingShape.from_pairs(pairs)
    if shape.total_degree() != total_degree:
        raise InvariantError(
            f"splitting shape covers degree {shape.total_degree()}, expected {total_degree}"
        )
    return shape
