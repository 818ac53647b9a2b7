"""Valued points, lower convex envelopes with exact rational slopes,
the principal part, lattice-point index counts, and residual polynomials.

Slopes are fractions.Fraction values; every comparison in hull
construction is an integer cross product, so nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import fppoly
from .errors import InvariantError, ValidationError
from .intarith import INFINITY
from .residue import (
    FPhiElement,
    ResidueField,
    ff_normalize,
    ff_to_string,
    residue_class,
    residue_field,
)
from .zpoly import PhiExpansion, ZPoly, poly_valuation


class ValuedPoint(NamedTuple):
    """Abscissa = position in the phi-expansion, ordinate = Gauss valuation."""

    i: int
    v: int


@dataclass(frozen=True)
class Side:
    """One side of a Newton polygon.

    The slope is the exact fraction -h/e with gcd(h, e) = 1 and e >= 1;
    length is the x-projection, height the (signed) y-drop, and the
    degree is length/e, the number of lattice steps along the side.
    """

    start: ValuedPoint
    end: ValuedPoint
    slope: Fraction
    h: int
    e: int
    length: int
    height: int
    degree: int

    @classmethod
    def from_endpoints(cls, start: ValuedPoint, end: ValuedPoint) -> "Side":
        if end.i <= start.i:
            raise ValidationError("side endpoints must have increasing abscissas")
        slope = Fraction(end.v - start.v, end.i - start.i)
        h = -slope.numerator
        e = slope.denominator
        length = end.i - start.i
        return cls(
            start=start,
            end=end,
            slope=slope,
            h=h,
            e=e,
            length=length,
            height=start.v - end.v,
            degree=length // e,
        )

    def ordinate_at(self, x: int) -> Fraction:
        return Fraction(self.start.v) + self.slope * (x - self.start.i)

    def lattice_points(self) -> list[ValuedPoint]:
        """The integral points on the side: start, start + (e, -h), ..."""
        return [
            ValuedPoint(self.start.i + k * self.e, self.start.v - k * self.h)
            for k in range(self.degree + 1)
        ]


@dataclass(frozen=True)
class NewtonPolygon:
    """A chain of sides with strictly increasing slopes."""

    sides: tuple[Side, ...]

    def __post_init__(self):
        for a, b in zip(self.sides, self.sides[1:]):
            if a.end != b.start:
                raise InvariantError("polygon sides do not chain")
            if not a.slope < b.slope:
                raise InvariantError("polygon slopes must strictly increase")

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

    def side_at(self, x: int) -> Side:
        for side in self.sides:
            if side.start.i <= x <= side.end.i:
                return side
        raise ValidationError(f"abscissa {x} outside polygon span")


def valued_points(expansion: PhiExpansion, p: int) -> list[ValuedPoint]:
    """The points (i, v_p(a_i)) for the nonzero expansion coefficients."""
    points = []
    for i, a in enumerate(expansion.coefficients):
        if a:
            v = poly_valuation(p, a)
            if v is not INFINITY:
                points.append(ValuedPoint(i, v))
    return points


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
    sides = tuple(Side.from_endpoints(a, b) for a, b in zip(hull, hull[1:]))
    return NewtonPolygon(sides)


def principal_part(polygon: NewtonPolygon) -> NewtonPolygon:
    """The sub-chain of sides with strictly negative slope."""
    return NewtonPolygon(tuple(s for s in polygon.sides if s.slope < 0))


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
        if side.slope >= 0:
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


def index_lattice_points(principal: NewtonPolygon) -> list[tuple[int, int]]:
    """The lattice points counted by phi_index (with deg_phi = 1), column by column."""
    out = []
    if principal.is_empty:
        return out
    first = principal.sides[0].start.i
    for side in principal.sides:
        lo = side.start.i if side.start.i == first else side.start.i + 1
        for x in range(max(1, lo), side.end.i + 1):
            for y in range(1, math.floor(side.ordinate_at(x)) + 1):
                out.append((x, y))
    return out


@dataclass(frozen=True)
class ResidualPolynomial:
    """The polynomial over F_phi attached to one side.

    coefficients[k] is the residue class of the expansion coefficient
    at abscissa s + k*e and multiplies y**k.  With this pairing a
    slope-0 side over the base x reproduces plain reduction mod p.
    """

    side: Side
    field: ResidueField
    coefficients: tuple[FPhiElement, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def as_poly(self):
        return ff_normalize(self.coefficients)

    def __str__(self):
        return ff_to_string(self.as_poly())


def residual_polynomial(
    expansion: PhiExpansion, p: int, phi: ZPoly, side: Side
) -> ResidualPolynomial:
    """Residue classes of the on-side expansion coefficients.

    Raises if the side does not match the expansion (endpoint
    valuations off, or endpoints falling on zero coefficients).
    """
    if tuple(phi) != tuple(expansion.phi):
        raise ValidationError("expansion was taken with a different base")
    if side.h < 0:
        raise ValidationError("residual polynomials do not attach to ascending sides")
    field = residue_field(p, fppoly.reduce_mod_p(phi, p))
    coeffs = []
    for k in range(side.degree + 1):
        pos = side.start.i + k * side.e
        u = side.start.v - k * side.h
        a = expansion.coefficient(pos)
        if not a:
            coeffs.append(field.zero())
            continue
        va = poly_valuation(p, a)
        if va < u:
            raise ValidationError(
                f"point ({pos}, {va}) lies below the side; inconsistent pairing"
            )
        coeffs.append(residue_class(a, p, phi, u))
    if not coeffs[0] or not coeffs[-1]:
        raise ValidationError("side endpoints must lie on the polygon")
    return ResidualPolynomial(side=side, field=field, coefficients=tuple(coeffs))
