"""Monogenity classification of the pure fields x**(p**r) - m.

The verdict is read off nu = v_p(m**p - m), p and r, as in the paper's
theorems; the engine's P_f/N_f table and common-index witness at p are
evidence in the certificate, checked against them.  The reports are
closed forms built from monogenity.polygon's records; this module never
loads ore, the reference engine, which holds the dense pipeline they are
tested against and Dedekind's criterion (an independent check that a
prime divides the index of Z[alpha]).
"""

from __future__ import annotations

import enum

from . import polygon, zpoly
from .errors import InvariantError, ValidationError
from .intarith import _count_monic_irreducibles, _fermat_valuation, require_prime
from .polygon import ValuedPoint
from .record import TupleRecord
from .residue import X, ff_make_monic, reduce_mod_p, residue_field
from .zpoly import PureFieldParams, candidate_index_primes


class Status(str, enum.Enum):
    MONOGENIC_ZALPHA = "MONOGENIC_ZALPHA"
    NOT_MONOGENIC = "NOT_MONOGENIC"
    UNDETERMINED = "UNDETERMINED"


class Provenance(str, enum.Enum):
    THEOREM_PIB = "THEOREM_PIB"
    THEOREM_NPIBODD = "THEOREM_NPIBODD"
    THEOREM_MONO2 = "THEOREM_MONO2"
    COROLLARY_MONO3 = "COROLLARY_MONO3"
    NONE = "NONE"


class PrimeAnalysis(TupleRecord):
    """Engine results for the pure polynomial at one prime."""

    prime: int
    reports: tuple[polygon.PhiReport, ...]
    index: polygon.IndexBound
    shape: polygon.SplittingShape
    pn_table: tuple[tuple[int, int, int], ...]  # (f, P_f, N_f)

    def comindex_witness(self):
        """Smallest residue degree f with P_f > N_f, or None."""
        for f, p_count, n_count in self.pn_table:
            if p_count > n_count:
                return f
        return None


class Certificate(TupleRecord):
    """Machine-checkable evidence; every number is recomputable from (p, r, m).
    The common-index answer is analysis_at(p).comindex_witness(); output
    derives v_p(m**(p-1) - 1) and the sign of m from params and nu_pivot."""

    params: PureFieldParams
    nu_pivot: int  # v_p(m**p - m)
    analyses: tuple[PrimeAnalysis, ...]
    discriminant_valuations: tuple[tuple[int, int], ...]

    def analysis_at(self, prime: int) -> PrimeAnalysis:
        for analysis in self.analyses:
            if analysis.prime == prime:
                return analysis
        raise ValidationError(f"certificate has no analysis at {prime}")


class MonogenityVerdict(TupleRecord):
    status: Status
    provenance: Provenance
    certificate: Certificate


def pure_prime_analysis(params: PureFieldParams, t: int) -> PrimeAnalysis:
    """Engine analysis of x**(p**r) - m at the prime t, in closed form.

    Expansion bases follow the structure of the family: x when t
    divides m, x - m when t = p.  The params have already checked p and
    the primes of m, the only primes that can divide the index; any
    other t raises ValidationError, a composite one as "not prime".
    Neither report builds anything of size n: the column of n + 1
    valuations is built where a report's points or valuations are read
    (render, --verify, tests), and analyze writes its point text from
    the expansion.

    At t | m the report is Eisenstein's.  At phi = x the expansion is
    a_0 = -m, a_n = 1 and nothing between, and v_t(m) = 1 as m is
    squarefree, so the polygon is the one side from (0, 1) to (n, 0):
    e = n, degree 1, residual y + (-m/t mod t), index 0, shape n:1.

    At t = p the report is closed form in (p, r, nu0), nu0 = v_p(a_0).
    The binomial lemma puts (j, r - v_p(j)) at 0 < j < n: each such point
    lies level with or right of (p**v_p(j), r - v_p(j)), and the hull
    never rises, so its vertices are (0, nu0) and (p**j, r - j) for
    j = k..r.  Each later side has height 1, so degree 1.  The first
    side has height a = nu0 - r + k over length p**k; the hull takes
    p**k over p**(k - 1) iff a/p**k >= (a - 1)/p**(k - 1), i.e.
    a(p - 1) <= p.  So a = 1 for odd p and a in {1, 2} for p = 2: k = 0
    if nu0 > r + [p = 2], k = r if nu0 = 1, else k = r + 1 + [p = 2] -
    nu0.  Only a p = 2 side with a = 2 has degree 2, through its midpoint
    (2**(k - 1), r - k + 1); its three digits are units of F_2, so its
    residual is y**2 + y + 1, irreducible.

    So every residual is linear or y**2 + y + 1: each is its own one
    squarefree factor, the analysis is regular, its index bound exact
    and its shape the splitting of t (Ore).  _closed_report builds both
    reports from the vertices, the base, the valued points and unit(j) =
    (v_t(a_j), first t-adic digit of a_j), reading each residual's digits
    at its side's lattice points; a valuation off the side, or a residual
    of another shape, raises InvariantError.  ore._phi_report on the
    dense expansion is the reference the tests hold both closed forms to.
    """
    n = params.degree
    if t in params.m_primes:
        # the Eisenstein side: a_0 = -m and a_n = 1 are the only coefficients
        phi, valued = X, ((0, n), (1, 0))
        vertices = (ValuedPoint(0, 1), ValuedPoint(n, 0))
        unit = {0: (1, -params.m // t % t), n: (0, 1)}.__getitem__
    elif t == params.p:
        shift = zpoly.pure_shift_expansion(params)
        p, r, nu0 = t, params.r, shift.nu0
        k = 0 if nu0 > r + (p == 2) else r + 1 + (p == 2 and nu0 > 1) - nu0
        vertices = (ValuedPoint(0, nu0), *(ValuedPoint(p**j, r - j) for j in range(k, r + 1)))
        phi, valued, unit = shift.phi, shift, shift.unit
    else:
        require_prime(t)
        raise ValidationError(f"{t} divides neither p nor m, so it cannot divide the index")
    reports = (_closed_report(t, n, phi, vertices, valued, unit),)
    index = polygon.index_lower_bound(reports)
    shape = polygon.splitting_shape(reports)
    pn_table = tuple(
        (f, shape.count_residue_degree(f), _count_monic_irreducibles(t, f))
        for f in shape.residue_degrees()
    )
    return PrimeAnalysis(t, reports, index, shape, pn_table)


def _closed_report(t: int, n: int, phi, vertices, valued, unit) -> polygon.PhiReport:
    # the report on the polygon with these vertices; see pure_prime_analysis
    hull = polygon.NewtonPolygon(tuple(map(polygon.Side, vertices, vertices[1:])))
    if hull.span != (0, n):
        raise InvariantError(f"polygon at {t} spans {hull.span}, expected (0, {n})")
    field = residue_field(t, reduce_mod_p(phi, t))
    sides = []
    for side in hull.sides:
        digits = []
        for k in range(side.degree + 1):
            j = side.start.i + k * side.e
            v, digit = unit(j)
            if v != side.start.v - k * side.h or not digit:
                raise InvariantError(f"point ({j}, {v}) at {t} is off the side {side}")
            digits.append(digit)
        residual = tuple(digits)
        monic = ff_make_monic(field, residual)
        if side.degree > 1 and monic != (1, 1, 1):
            raise InvariantError(f"residual {monic} on a side of degree {side.degree}")
        sides.append(polygon.SideAnalysis(side, field, residual, ((monic, 1),)))
    index = polygon.phi_index(hull, 1)
    return polygon.PhiReport(phi, n, valued, hull, tuple(sides), index, True)


def classify(params: PureFieldParams) -> MonogenityVerdict:
    """Decide monogenity of Q(m**(1/p**r)) from nu = v_p(m**p - m), p and r.

    Branches: nu = 1 certifies Z[alpha] = Z_K (THEOREM_PIB); odd p with
    nu > p and r >= p is not monogenic (THEOREM_NPIBODD, COROLLARY_MONO3
    at p = 3); p = 2 with nu >= 4 at r = 2 or nu >= 5 at r >= 3 is not
    monogenic (THEOREM_MONO2); anything else is UNDETERMINED.

    The engine's witness at p, a residue degree f with more primes P_f
    than monic irreducibles N_f of degree f over F_p, exists exactly
    when a non-monogenity branch fires; any other outcome raises
    InvariantError.  Proof: if p divides the squarefree m, nu = v_p(m)
    = 1 and the report at p is one Eisenstein side.  Otherwise
    nu = v_p(m**(p-1) - 1) = nu0 = v_p(m**(n-1) - 1) by lifting the
    exponent, as (n - 1)/(p - 1) = (p**r - 1)/(p - 1) is 1 mod p, and
    pure_prime_analysis's closed form has r - k + 1 sides.  For odd p
    each has degree 1, so P_1 = min(nu, r + 1) > N_1 = p exactly when
    nu > p and r >= p.  For p = 2 at most one side has degree 2, with
    residual y**2 + y + 1, so P_2 <= 1 = N_2, and P_1 is r + 1, nu - 2
    or 1 as nu > r + 1, 1 < nu <= r + 1 or nu = 1; so P_1 > 2 = N_1
    exactly when r = 2 and nu >= 4, or r >= 3 and nu >= 5.  nu is read
    off m**p mod powers of p, and nu0 apart from it at the exponent n, so
    the witness check also tests the lifting-the-exponent step.
    """
    p, r = params.p, params.r
    nu_pivot = _fermat_valuation(p, params.m, p)
    status = Status.NOT_MONOGENIC
    if nu_pivot == 1:
        status, provenance = Status.MONOGENIC_ZALPHA, Provenance.THEOREM_PIB
    elif p % 2 and nu_pivot > p and r >= p:
        provenance = Provenance.COROLLARY_MONO3 if p == 3 else Provenance.THEOREM_NPIBODD
    elif p == 2 and (r == 2 and nu_pivot >= 4 or r >= 3 and nu_pivot >= 5):
        provenance = Provenance.THEOREM_MONO2
    else:
        status, provenance = Status.UNDETERMINED, Provenance.NONE

    candidates = candidate_index_primes(params)
    if nu_pivot == 1:
        analyses = tuple(pure_prime_analysis(params, t) for t in candidates)
        for analysis in analyses:
            if analysis.index.value != 0:
                raise InvariantError(
                    f"pivot valuation 1 but index bound at {analysis.prime} is "
                    f"{analysis.index.value}"
                )
    else:
        analyses = (pure_prime_analysis(params, p),)
    witness = next(a for a in analyses if a.prime == p).comindex_witness()
    if (witness is None) == (status is Status.NOT_MONOGENIC):
        found = "no" if witness is None else "a"
        raise InvariantError(
            f"{provenance.value} verdict but the engine exhibits {found} "
            f"common index divisor at {p}"
        )
    disc = tuple((t, zpoly.discriminant_valuation(params, t)) for t in candidates)
    return MonogenityVerdict(status, provenance, Certificate(params, nu_pivot, analyses, disc))


def __getattr__(name):  # PEP 562: bench/checks.py reads dedekind_divides_index here
    if name == "dedekind_divides_index":
        from .ore import dedekind_divides_index

        return dedekind_divides_index
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
