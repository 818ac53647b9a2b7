"""Monogenity classification of the pure fields x**(p**r) - m.

The decision tree certifies Z[alpha] = Z_K when v_p(m**p - m) = 1,
proves non-monogenity through a common index divisor when the engine
splitting exhibits more degree-f primes than there are monic
irreducibles of degree f over F_p, and otherwise reports UNDETERMINED
with full diagnostics.  The Dedekind criterion is carried alongside as
an independent check that a prime divides the index of Z[alpha].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import fppoly, ore, zpoly
from .errors import InvariantError, ValidationError
from .intarith import count_monic_irreducibles, require_prime, valuation
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


class ComIndexEvidence(str, enum.Enum):
    YES = "YES"
    NO_EVIDENCE = "NO_EVIDENCE"
    UNKNOWN_IRREGULAR = "UNKNOWN_IRREGULAR"


@dataclass(frozen=True)
class PrimeAnalysis:
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


@dataclass(frozen=True)
class Certificate:
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


@dataclass(frozen=True)
class MonogenityVerdict:
    status: Status
    provenance: Provenance
    certificate: Certificate


def pure_prime_analysis(params: PureFieldParams, t: int, seed: int = 0) -> PrimeAnalysis:
    """Engine analysis of x**(p**r) - m at the prime t.

    Expansion bases follow the structure of the family: x when t
    divides m, x - m when t = p, canonical lifts otherwise.
    """
    require_prime(t)
    f = pure_polynomial(params)
    if params.m % t == 0:
        reports = (ore.phi_report(f, t, (0, 1), seed=seed),)
    elif t == params.p:
        expansion = zpoly.pure_shift_expansion(params)
        reports = (
            ore.phi_report(
                f, t, expansion.phi, seed=seed, expansion=expansion, points=expansion.points()
            ),
        )
    else:
        reports = tuple(ore.analyze_prime(f, t, seed=seed))
    index = ore.index_lower_bound(reports)
    shape = ore.splitting_shape(reports)
    pn_table = ()
    if shape is not ore.NOT_REGULAR:
        pn_table = tuple(
            (f, shape.count_residue_degree(f), count_monic_irreducibles(t, f))
            for f in shape.residue_degrees()
        )
    return PrimeAnalysis(
        prime=t, reports=reports, index=index, shape=shape, pn_table=pn_table
    )


def _build_certificate(params: PureFieldParams, all_candidates: bool) -> Certificate:
    p, m = params.p, params.m
    nu_pivot = valuation(p, m**p - m)
    nu_fermat = valuation(p, m ** (p - 1) - 1) if m % p else None
    primes = candidate_index_primes(params) if all_candidates else (p,)
    analyses = tuple(pure_prime_analysis(params, t) for t in primes)
    disc = tuple((t, zpoly.discriminant_valuation(params, t)) for t in candidate_index_primes(params))
    at_p = analyses[0] if not all_candidates else next(a for a in analyses if a.prime == p)
    witness = at_p.comindex_witness() if at_p.regular else None
    return Certificate(
        params=params,
        nu_pivot=nu_pivot,
        nu_fermat=nu_fermat,
        negative_m=m < 0,
        analyses=analyses,
        discriminant_valuations=disc,
        comindex_prime=p if witness is not None else None,
        comindex_degree=witness,
    )


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
    nu_pivot = valuation(p, m**p - m)

    if nu_pivot == 1:
        certificate = _build_certificate(params, all_candidates=True)
        for analysis in certificate.analyses:
            if analysis.index.value != 0 or not analysis.index.exact:
                raise InvariantError(
                    f"pivot valuation 1 but index bound at {analysis.prime} is "
                    f"{analysis.index.value} (exact={analysis.index.exact})"
                )
        return MonogenityVerdict(Status.MONOGENIC_ZALPHA, Provenance.THEOREM_PIB, certificate)

    certificate = _build_certificate(params, all_candidates=False)
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
    if p == 2 and r == 2 and valuation(2, 1 - m) >= 4:
        return not_monogenic(Provenance.THEOREM_MONO2)
    if p == 2 and r >= 3 and valuation(2, 1 - m) >= 5:
        return not_monogenic(Provenance.THEOREM_MONO2)
    if at_p.regular and at_p.comindex_witness() is not None:
        return not_monogenic(Provenance.ENGINE_COMINDEX)
    return MonogenityVerdict(Status.UNDETERMINED, Provenance.NONE, certificate)


def is_common_index_divisor(params: PureFieldParams, p: int) -> ComIndexEvidence:
    """One-directional test: YES proves p divides the index of every generator.

    NO_EVIDENCE does not certify monogenity, and an irregular analysis
    gives no splitting to count.
    """
    analysis = pure_prime_analysis(params, p)
    if not analysis.regular:
        return ComIndexEvidence.UNKNOWN_IRREGULAR
    if analysis.comindex_witness() is not None:
        return ComIndexEvidence.YES
    return ComIndexEvidence.NO_EVIDENCE


def dedekind_divides_index(f: zpoly.ZPoly, q: int) -> bool:
    """Dedekind's criterion: does q divide the index of Z[x]/(f)?

    Factor the reduction of f as the product of gbar_i**e_i, set
    gbar = prod gbar_i and hbar = prod gbar_i**(e_i - 1), lift both
    monically, and test whether gcd((g*h - f)/q, gbar, hbar) is
    nonconstant over F_q.
    """
    require_prime(q)
    f = zpoly.poly(f)
    if not zpoly.is_monic(f):
        raise ValidationError("Dedekind's criterion needs a monic polynomial")
    fbar = fppoly.reduce_mod_p(f, q)
    gbar: fppoly.FpPoly = fppoly.ONE
    hbar: fppoly.FpPoly = fppoly.ONE
    for factor_bar, mult in fppoly.factor(fbar, q):
        gbar = fppoly.mul(gbar, factor_bar, q)
        for _ in range(mult - 1):
            hbar = fppoly.mul(hbar, factor_bar, q)
    g = fppoly.lift(gbar)
    h = fppoly.lift(hbar)
    product = zpoly.mul(g, h)
    diff = zpoly.sub(product, f)
    t_coeffs = []
    for c in diff:
        quo, rem = divmod(c, q)
        if rem:
            raise InvariantError("g*h - f is not divisible by q")
        t_coeffs.append(quo)
    tbar = fppoly.reduce_mod_p(t_coeffs, q)
    common = fppoly.gcd(fppoly.gcd(tbar, gbar, q), hbar, q)
    return fppoly.degree(common) >= 1
