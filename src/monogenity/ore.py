"""Regularity analysis, the index lower bound, and splitting shapes.

For a monic irreducible f and a prime p this runs the whole first-order
pipeline: factor the reduction of f, expand f at a lift of each
irreducible factor, build the principal polygon, attach and factor the
residual polynomials, and read off the index bound and (in the regular
case) the shape of the factorization of p in the ring of integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fppoly, polygon, zpoly
from .errors import InvariantError, ValidationError
from .intarith import require_prime
from .residue import FPhiPoly, ff_degree, ff_factor, ff_make_monic, ff_to_string, residue_field


@dataclass(frozen=True)
class SideAnalysis:
    """One principal side together with its residual data."""

    side: polygon.Side
    residual: polygon.ResidualPolynomial
    factors: tuple[tuple[FPhiPoly, int], ...]

    @property
    def squarefree(self) -> bool:
        return all(mult == 1 for _, mult in self.factors)

    def factor_strings(self) -> tuple[str, ...]:
        out = []
        for psi, mult in self.factors:
            text = ff_to_string(psi)
            out.append(text if mult == 1 else f"({text})^{mult}")
        return tuple(out)


@dataclass(frozen=True)
class PhiReport:
    """Everything the polygon machinery knows about one factor of the reduction."""

    phi: zpoly.ZPoly
    multiplicity: int
    points: tuple[polygon.ValuedPoint, ...]
    polygon: polygon.NewtonPolygon
    principal: polygon.NewtonPolygon
    sides: tuple[SideAnalysis, ...]
    index: int
    regular: bool

    @property
    def phi_degree(self) -> int:
        return zpoly.degree(self.phi)


@dataclass(frozen=True)
class IndexBound:
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


@dataclass(frozen=True)
class SplittingShape:
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


def phi_report(
    f: zpoly.ZPoly,
    p: int,
    phi: zpoly.ZPoly,
    seed: int = 0,
    expansion: "zpoly.PhiExpansion | zpoly.PureShiftExpansion | None" = None,
    points: "list[tuple[int, int]] | None" = None,
) -> PhiReport:
    """Run the polygon pipeline for one expansion base phi.

    The reduction of phi must be irreducible and divide the reduction
    of f.  The multiplicity of that factor is read off the expansion:
    it is the first abscissa whose coefficient is a p-adic unit.  A
    caller that already holds the expansion of f at phi may pass it in,
    and a caller that knows every valued point (i, v_p(a_i)) in closed
    form may pass those too; then only the coefficients on the sides
    are read from the expansion.
    """
    f = zpoly.poly(f)
    phi = zpoly.poly(phi)
    if not zpoly.is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    # F_phi exists only for a prime p and an irreducible reduction of phi;
    # residual_polynomial then finds the field built
    residue_field(p, fppoly.normalize(phi, p))
    if expansion is None:
        expansion = zpoly.phi_expansion(f, phi)
    elif zpoly.poly(expansion.phi) != phi:
        raise ValidationError("provided expansion was taken at a different base")

    if not expansion.coefficient(0) and zpoly.degree(f) != zpoly.degree(phi):
        raise ValidationError(
            "expansion base divides f over Z; the analysis needs an irreducible f"
        )
    if points is None:
        points = polygon.valued_points(expansion, p)
    else:
        points = [polygon.ValuedPoint(i, v) for i, v in points]
    unit_positions = [pt.i for pt in points if pt.v == 0]
    if not unit_positions:
        raise InvariantError("no unit coefficient in the expansion of a monic polynomial")
    multiplicity = min(unit_positions)
    if multiplicity == 0:
        raise ValidationError("expansion base does not divide the reduction of f")
    hull = polygon.lower_convex_hull(points)
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
        factors = tuple(ff_factor(monic, seed=seed))
        if sum(ff_degree(psi) * mult for psi, mult in factors) != side.degree:
            raise InvariantError("residual factorization does not match the side degree")
        sides.append(SideAnalysis(side=side, residual=residual, factors=factors))

    index = polygon.phi_index(principal, zpoly.degree(phi))
    regular = all(s.squarefree for s in sides)
    return PhiReport(
        phi=phi,
        multiplicity=multiplicity,
        points=tuple(points),
        polygon=hull,
        principal=principal,
        sides=tuple(sides),
        index=index,
        regular=regular,
    )


def analyze_prime(f: zpoly.ZPoly, p: int, seed: int = 0) -> list[PhiReport]:
    """One PhiReport per irreducible factor of the reduction of f mod p.

    Expansion bases are the canonical monic lifts with coefficients in
    0..p-1, in the canonical factor order.
    """
    require_prime(p)
    f = zpoly.poly(f)
    if not zpoly.is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    reports = []
    for phibar, _ in fppoly._factor(f, p, seed=seed):
        reports.append(phi_report(f, p, fppoly.lift(phibar), seed=seed))
    return reports


def index_lower_bound(reports) -> IndexBound:
    """Sum of the per-factor indices; exact iff every report is regular."""
    return IndexBound(
        value=sum(r.index for r in reports),
        exact=all(r.regular for r in reports),
    )


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


def count_primes_with_residue_degree(shape: SplittingShape, f: int) -> int:
    """Number of primes in the shape with residue degree f."""
    if f < 1:
        raise ValidationError("residue degree must be positive")
    return shape.count_residue_degree(f)
