"""Valued points, lower convex envelopes with exact rational slopes,
the principal part, lattice-point index counts, and residual polynomials.
The valued points of a dense expansion and the lattice points that
render draws live in monogenity.general.

A side's slope is -h/e in lowest terms, kept as the integers h and e:
hull construction, the chain check, the principal part and the index
compare slopes by integer cross products or by the sign of h, so
nothing here ever rounds.
"""

from __future__ import annotations

import math

from .errors import InvariantError, ValidationError
from .record import Record, TupleRecord
from .residue import (
    ResidueField,
    _residue_class,
    ff_normalize,
    ff_to_string,
    reduce_mod_p,
    residue_field,
)
from .zpoly import PhiExpansion, PureShiftExpansion, ZPoly, _poly_valuation


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


def _dedupe(points) -> list[ValuedPoint]:
    best: dict[int, int] = {}
    for pt in points:
        i, v = pt
        if i not in best or v < best[i]:
            best[i] = v
    return [ValuedPoint(i, v) for i, v in sorted(best.items())]


def lower_convex_hull(points) -> NewtonPolygon:
    """Lower boundary convex envelope; collinear points merge into one side."""
    pts = _dedupe(points)
    if not pts:
        raise ValidationError("hull of an empty point set")
    hull: list[ValuedPoint] = []
    for pt in pts:
        # pop while the previous slope is >= the new one (merges collinear)
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b.v - a.v) * (pt.i - b.i) >= (pt.v - b.v) * (b.i - a.i):
                hull.pop()
            else:
                break
        hull.append(pt)
    sides = tuple(Side(a, b) for a, b in zip(hull, hull[1:]))
    return NewtonPolygon(sides)


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


class ResidualPolynomial(TupleRecord):
    """The polynomial over F_phi attached to one side.

    coefficients[k], an element of field, is the residue class of the
    expansion coefficient at abscissa s + k*e and multiplies y**k.  With
    this pairing a slope-0 side over the base x reproduces plain
    reduction mod p.
    """

    side: Side
    field: ResidueField
    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def as_poly(self):
        return ff_normalize(self.coefficients)

    def __str__(self):
        return ff_to_string(self.field, self.as_poly())


def residual_polynomial(
    expansion: "PhiExpansion | PureShiftExpansion", p: int, phi: ZPoly, side: Side
) -> ResidualPolynomial:
    """Residue classes of the on-side expansion coefficients.

    A PureShiftExpansion gives each class in F_phi = F_p by its closed
    form.  Raises if the side does not match the expansion (endpoint
    valuations off, or endpoints on zero coefficients).  Building F_phi checks p.
    """
    if tuple(phi) != tuple(expansion.phi):
        raise ValidationError("expansion was taken with a different base")
    if side.h < 0:
        raise ValidationError("residual polynomials do not attach to ascending sides")
    field = residue_field(p, reduce_mod_p(phi, p))
    pure = isinstance(expansion, PureShiftExpansion)
    coeffs = []
    for k in range(side.degree + 1):
        pos = side.start.i + k * side.e
        u = side.start.v - k * side.h
        if pure:
            va, digit = expansion.unit(pos)
        else:
            a = expansion.coefficient(pos)
            va = _poly_valuation(p, a)
        if va < u:
            raise ValidationError(
                f"point ({pos}, {va}) lies below the side; inconsistent pairing"
            )
        if va > u:
            coeffs.append(field.zero)
        else:
            coeffs.append(digit if pure else _residue_class(field, a, u))
    if not coeffs[0] or not coeffs[-1]:
        raise ValidationError("side endpoints must lie on the polygon")
    return ResidualPolynomial(side, field, tuple(coeffs))
