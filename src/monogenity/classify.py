"""Monogenity classification of the pure fields x**(p**r) - m.

The decision tree certifies Z[alpha] = Z_K when v_p(m**p - m) = 1,
proves non-monogenity through a common index divisor when the engine
splitting exhibits more degree-f primes than there are monic
irreducibles of degree f over F_p, and otherwise reports UNDETERMINED
with full diagnostics.  The Dedekind criterion, an independent check
that a prime divides the index of Z[alpha], and the common-index test
at one prime live in monogenity.general.
"""

from __future__ import annotations

import enum

from . import ore, zpoly
from .errors import InvariantError, ValidationError
from .intarith import _count_monic_irreducibles, _valuation
from .record import TupleRecord
from .zpoly import PureFieldParams, candidate_index_primes, pure_polynomial


class Status(str, enum.Enum):
    MONOGENIC_ZALPHA = "MONOGENIC_ZALPHA"
    NOT_MONOGENIC = "NOT_MONOGENIC"
    UNDETERMINED = "UNDETERMINED"


class Provenance(str, enum.Enum):
    THEOREM_PIB = "THEOREM_PIB"
    THEOREM_NPIBODD = "THEOREM_NPIBODD"
    THEOREM_MONO2 = "THEOREM_MONO2"
    COROLLARY_MONO3 = "COROLLARY_MONO3"
    ENGINE_COMINDEX = "ENGINE_COMINDEX"
    NONE = "NONE"


class PrimeAnalysis(TupleRecord):
    """Engine results for the pure polynomial at one prime."""

    prime: int
    reports: tuple[ore.PhiReport, ...]
    index: ore.IndexBound
    shape: "ore.SplittingShape | ore._NotRegular"
    pn_table: tuple[tuple[int, int, int], ...]  # (f, P_f, N_f)

    @property
    def regular(self) -> bool:
        return self.shape is not ore.NOT_REGULAR

    def comindex_witness(self):
        """Smallest residue degree f with P_f > N_f, or None."""
        for f, p_count, n_count in self.pn_table:
            if p_count > n_count:
                return f
        return None


class Certificate(TupleRecord):
    """Machine-checkable evidence; every number is recomputable from (p, r, m)."""

    params: PureFieldParams
    nu_pivot: int  # v_p(m**p - m)
    nu_fermat: "int | None"  # v_p(m**(p-1) - 1) when p does not divide m
    negative_m: bool
    analyses: tuple[PrimeAnalysis, ...]
    discriminant_valuations: tuple[tuple[int, int], ...]
    comindex_prime: "int | None"
    comindex_degree: "int | None"

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
    """Engine analysis of x**(p**r) - m at the prime t.

    Expansion bases follow the structure of the family: x when t
    divides m, x - m when t = p, canonical lifts otherwise.  The params
    have already checked p and the primes of m; any other t is checked
    by analyze_prime.  At t | m the polygon is the single side from
    (0, 1) to (n, 0), since m is squarefree; at t = p the report keeps
    the PureShiftExpansion.  Neither builds anything of size n: the
    column of n + 1 valuations is built where a report's points or
    valuations are read (render, --verify, tests), and analyze writes
    its point text from the expansion.
    """
    if t in params.m_primes:
        at_x = zpoly.PureExpansionAtX(params)
        reports = (ore._phi_report(t, at_x, ((0, params.degree), (1, 0))),)
    elif t == params.p:
        shift = zpoly.pure_shift_expansion(params)
        reports = (ore._phi_report(t, shift, shift),)
    else:  # no candidate prime of classify gets here
        reports = tuple(ore.analyze_prime(pure_polynomial(params), t))
    index = ore.index_lower_bound(reports)
    shape = ore.splitting_shape(reports)
    pn_table = ()
    if shape is not ore.NOT_REGULAR:
        pn_table = tuple(
            (f, shape.count_residue_degree(f), _count_monic_irreducibles(t, f))
            for f in shape.residue_degrees()
        )
    return PrimeAnalysis(t, reports, index, shape, pn_table)


def _build_certificate(
    params: PureFieldParams, nu_pivot: int, all_candidates: bool
) -> Certificate:
    # nu_pivot = v_p(m**p - m), which classify has already taken
    p, m = params.p, params.m
    nu_fermat = _valuation(p, m ** (p - 1) - 1) if m % p else None
    candidates = candidate_index_primes(params)
    primes = candidates if all_candidates else (p,)
    analyses = tuple(pure_prime_analysis(params, t) for t in primes)
    disc = tuple((t, zpoly.discriminant_valuation(params, t)) for t in candidates)
    at_p = analyses[0] if not all_candidates else next(a for a in analyses if a.prime == p)
    witness = at_p.comindex_witness() if at_p.regular else None
    comindex_prime = p if witness is not None else None
    return Certificate(params, nu_pivot, nu_fermat, m < 0, analyses, disc, comindex_prime, witness)


def classify(params: PureFieldParams) -> MonogenityVerdict:
    """Decide monogenity of Q(m**(1/p**r)) as far as the machinery reaches.

    Branches, in order: v_p(m**p - m) = 1 certifies Z[alpha] = Z_K; for
    odd p not dividing m with v_p(m**(p-1) - 1) > p and r >= p the field
    is not monogenic; for p = 2 the congruences m = 1 mod 16 (r = 2) and
    m = 1 mod 32 (r >= 3) rule monogenity out; otherwise the engine
    looks for a common index divisor at p, and failing that the verdict
    is UNDETERMINED.
    """
    p, r, m = params.p, params.r, params.m
    nu_pivot = _valuation(p, m**p - m)

    if nu_pivot == 1:
        certificate = _build_certificate(params, nu_pivot, all_candidates=True)
        for analysis in certificate.analyses:
            if analysis.index.value != 0 or not analysis.index.exact:
                raise InvariantError(
                    f"pivot valuation 1 but index bound at {analysis.prime} is "
                    f"{analysis.index.value} (exact={analysis.index.exact})"
                )
        return MonogenityVerdict(Status.MONOGENIC_ZALPHA, Provenance.THEOREM_PIB, certificate)

    certificate = _build_certificate(params, nu_pivot, all_candidates=False)
    at_p = certificate.analysis_at(p)

    def not_monogenic(provenance: Provenance) -> MonogenityVerdict:
        if certificate.comindex_degree is None:
            raise InvariantError(
                "non-monogenity branch fired but the engine exhibits no "
                f"common index divisor at {p}"
            )
        return MonogenityVerdict(Status.NOT_MONOGENIC, provenance, certificate)

    if p % 2 and m % p and certificate.nu_fermat > p and r >= p:
        provenance = Provenance.COROLLARY_MONO3 if p == 3 else Provenance.THEOREM_NPIBODD
        return not_monogenic(provenance)
    if p == 2 and r == 2 and _valuation(2, 1 - m) >= 4:
        return not_monogenic(Provenance.THEOREM_MONO2)
    if p == 2 and r >= 3 and _valuation(2, 1 - m) >= 5:
        return not_monogenic(Provenance.THEOREM_MONO2)
    if at_p.regular and at_p.comindex_witness() is not None:
        return not_monogenic(Provenance.ENGINE_COMINDEX)
    return MonogenityVerdict(Status.UNDETERMINED, Provenance.NONE, certificate)


def __getattr__(name):  # PEP 562: bench/checks.py reads dedekind_divides_index here
    if name == "dedekind_divides_index":
        from .general import dedekind_divides_index

        return dedekind_divides_index
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
