"""The reference pipeline: Ore's first-order analysis of any monic f.

For a monic irreducible f, a prime p and a base phi whose reduction is
an irreducible factor of the reduction of f, phi_report expands f at
phi, builds the principal polygon, and attaches and factors the
residual polynomials, with the expansion, valued points and
factorization of monogenity.general; analyze_prime reports at a lift of
each factor of the reduction of f.  The reports are monogenity.polygon's
records, which classify builds in closed form without loading this
module; the tests hold those closed forms to this pipeline.
"""

from __future__ import annotations

from . import polygon, zpoly
from .errors import InvariantError, ValidationError
from .general import ff_factor, phi_expansion, valued_points
from .polygon import index_lower_bound, splitting_shape  # read on the engine's reports as ore.*
from .residue import X, ff_degree, ff_make_monic, reduce_mod_p, residue_field


def phi_report(f: zpoly.ZPoly, p: int, phi: zpoly.ZPoly) -> polygon.PhiReport:
    """Run the polygon pipeline for one expansion base phi.

    The reduction of phi must be irreducible and divide the reduction
    of f.  The multiplicity of that factor is read off the valued
    points: it is the first abscissa whose coefficient is a p-adic unit.
    """
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


def analyze_prime(f: zpoly.ZPoly, p: int) -> list[polygon.PhiReport]:
    """One PhiReport per irreducible factor of the reduction of f mod p.

    Expansion bases are the canonical monic lifts with coefficients in
    0..p-1, in the canonical factor order.  Building F_p checks p.
    """
    prime_field = residue_field(p, X)
    f = zpoly.poly(f)
    if not zpoly.is_monic(f):
        raise ValidationError("analysis requires a monic polynomial")
    return [phi_report(f, p, phibar) for phibar, _ in ff_factor(prime_field, reduce_mod_p(f, p))]


def _phi_report(p: int, expansion: zpoly.PhiExpansion, valued) -> polygon.PhiReport:
    """phi_report() for a base and a dense expansion already checked; valued
    is the columns (abscissas, valuations)."""
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
        sides.append(polygon.SideAnalysis(side, residual, factors))

    index = polygon.phi_index(principal, zpoly.degree(phi))
    regular = all(s.squarefree for s in sides)
    return polygon.PhiReport(phi, multiplicity, valued, hull, principal, tuple(sides), index, regular)
