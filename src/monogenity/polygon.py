"""Valued points, Newton polygons with exact rational slopes, the
principal part, lattice-point index counts, and the report records built
from them: SideAnalysis (a principal side, its residual polynomial as a
tuple over F_phi, and that polynomial's factors) and PhiReport at one
base, and the IndexBound and SplittingShape (or NOT_REGULAR) read off
the reports at one prime.  classify builds its closed-form reports from
these records, and the reference engine monogenity.ore builds the same
records from the lower convex hull and the residual polynomials of a
dense expansion, which live there.  The lattice points that render
draws are enumerated in monogenity.oracle.

A side's slope is -h/e in lowest terms, kept as the integers h and e:
the chain check, the principal part and the index compare slopes by
integer cross products or by the sign of h, so nothing here ever
rounds.
"""

from __future__ import annotations

import math

from .errors import InvariantError, ValidationError
from .record import Record, TupleRecord
from .residue import ResidueField, ff_to_string
from .zpoly import PureShiftExpansion, ZPoly, degree


class ValuedPoint(TupleRecord):
    """Abscissa = position in the phi-expansion, ordinate = Gauss valuation."""

    i: int
    v: int


class Side(Record):
    """One side of a Newton polygon, from its endpoints.

    The slope is -h/e with gcd(h, e) = 1 and e >= 1; length is the
    x-projection, height the (signed) y-drop, and the degree is
    length/e, the number of lattice steps along the side.
    """

    __slots__ = ("start", "end", "h", "e", "length", "height", "degree")
    _fields = ("start", "end")

    def __init__(self, start: ValuedPoint, end: ValuedPoint):
        length = end.i - start.i
        if length <= 0:
            raise ValidationError("side endpoints must have increasing abscissas")
        height = start.v - end.v
        g = math.gcd(height, length)
        e = length // g
        for name, value in zip(self.__slots__, (start, end, height // g, e, length, height, g)):
            object.__setattr__(self, name, value)

    @property
    def slope(self):
        """The slope -h/e as a fractions.Fraction, imported here only."""
        from fractions import Fraction

        return Fraction(-self.h, self.e)

    def slope_text(self) -> str:
        """The slope as text: "-h/e", or "|h|/e" on a rising side (h < 0)."""
        return f"-{self.h}/{self.e}" if self.h >= 0 else f"{-self.h}/{self.e}"


class NewtonPolygon(Record):
    """A chain of sides with strictly increasing slopes."""

    __slots__ = _fields = ("sides",)

    def __init__(self, sides: tuple[Side, ...]):
        for a, b in zip(sides, sides[1:]):
            if a.end != b.start:
                raise InvariantError("polygon sides do not chain")
            if not b.h * a.e < a.h * b.e:  # -a.h/a.e < -b.h/b.e
                raise InvariantError("polygon slopes must strictly increase")
        super().__init__(sides)

    @property
    def is_empty(self) -> bool:
        return not self.sides

    @property
    def vertices(self) -> tuple[ValuedPoint, ...]:
        if not self.sides:
            return ()
        return (self.sides[0].start,) + tuple(s.end for s in self.sides)

    @property
    def span(self) -> tuple[int, int]:
        if not self.sides:
            raise ValidationError("empty polygon has no abscissa span")
        return self.sides[0].start.i, self.sides[-1].end.i


def principal_part(polygon: NewtonPolygon) -> NewtonPolygon:
    """The sub-chain of sides with strictly negative slope."""
    return NewtonPolygon(tuple(s for s in polygon.sides if s.h > 0))


def phi_index(principal: NewtonPolygon, deg_phi: int) -> int:
    """deg(phi) times the number of lattice points with x >= 1, y >= 1 lying
    on or below the principal polygon, within its abscissa span.

    The count is taken side by side in closed form.  A side of slope
    -h/e and degree d from (x0, v0) has ordinate v0 - t*h/e at column
    x0 + t; for t = 1..de, with gcd(h, e) = 1, the floors of t*h/e sum
    to (h*d*(de + 1) - d*(e - 1))/2 and each ceiling is one more unless
    e divides t.
    """
    if deg_phi < 1:
        raise ValidationError("deg_phi must be positive")
    for side in principal.sides:
        if side.h <= 0:
            raise ValidationError("phi_index expects the principal part only")
    if principal.is_empty:
        return 0
    first = principal.sides[0].start
    if first.i < 0 or principal.sides[-1].end.v < 0:
        raise ValidationError("phi_index expects a polygon with x >= 0 and y >= 0")
    total = first.v if first.i >= 1 else 0
    for side in principal.sides:
        d, e, h = side.degree, side.e, side.h
        floors = (h * d * (d * e + 1) - d * (e - 1)) // 2
        total += d * e * side.start.v - floors - (d * e - d)
    return deg_phi * total


# ---------------------------------------------------------------------------
# the report at one base, and what is read off the reports at one prime


class SideAnalysis(TupleRecord):
    """One principal side, its residue field F_phi, its residual polynomial
    and that polynomial's factors over F_phi.

    residual[k], an element of field, is the residue class of the
    expansion coefficient at abscissa s + k*e and multiplies y**k; both
    end coefficients are nonzero.  With this pairing a slope-0 side over
    the base x reproduces plain reduction mod p.
    """

    side: Side
    field: ResidueField
    residual: tuple
    factors: tuple[tuple[tuple, int], ...]  # over field

    @property
    def squarefree(self) -> bool:
        return all(mult == 1 for _, mult in self.factors)

    def residual_text(self) -> str:
        return ff_to_string(self.field, self.residual)

    def factor_strings(self) -> tuple[str, ...]:
        out = []
        for psi, mult in self.factors:
            text = ff_to_string(self.field, psi)
            out.append(text if mult == 1 else f"({text})^{mult}")
        return tuple(out)


class PhiReport(TupleRecord):
    """Everything the polygon machinery knows about one factor of the reduction;
    sides has one SideAnalysis per side of the principal part of polygon, and
    valued holds the valued points (i, v_p(a_i)) as the columns (abscissas,
    valuations) or as the PureShiftExpansion whose valuations() gives them
    when points is read."""

    phi: ZPoly
    multiplicity: int
    valued: "PureShiftExpansion | tuple"
    polygon: NewtonPolygon
    sides: tuple[SideAnalysis, ...]
    index: int
    regular: bool

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        valued = self.valued
        if isinstance(valued, PureShiftExpansion):
            valued = range(valued.params.degree + 1), valued.valuations()
        return tuple(zip(*valued))

    @property
    def phi_degree(self) -> int:
        return degree(self.phi)


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
        if not report.sides:
            pairs.append((1, report.phi_degree))
            continue
        for analysis in report.sides:
            for psi, _ in analysis.factors:
                pairs.append((analysis.side.e, report.phi_degree * degree(psi)))
    shape = SplittingShape.from_pairs(pairs)
    if shape.total_degree() != total_degree:
        raise InvariantError(
            f"splitting shape covers degree {shape.total_degree()}, expected {total_degree}"
        )
    return shape
