import math
import random

import pytest

from monogenity.classify import (
    ComIndexEvidence,
    Provenance,
    Status,
    classify,
    dedekind_divides_index,
    is_common_index_divisor,
    pure_prime_analysis,
)
from monogenity.errors import ValidationError
from monogenity.intarith import is_squarefree, valuation
from monogenity.ore import NOT_REGULAR, phi_report
from monogenity.zpoly import (
    PhiExpansion,
    PureFieldParams,
    candidate_index_primes,
    phi_expansion,
    pure_polynomial,
)


class TestClassifyExamples:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_seventh_root_of_2(self, r):
        # v_7(2^7 - 2) = v_7(126) = 1
        verdict = classify(PureFieldParams(7, r, 2))
        assert verdict.status is Status.MONOGENIC_ZALPHA
        assert verdict.provenance is Provenance.THEOREM_PIB

    def test_quartic_17(self):
        verdict = classify(PureFieldParams(2, 2, 17))
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.provenance is Provenance.THEOREM_MONO2
        analysis = verdict.certificate.analysis_at(2)
        assert analysis.pn_table == ((1, 3, 2),)

    def test_27th_root_of_161(self):
        verdict = classify(PureFieldParams(3, 3, 161))
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.provenance is Provenance.COROLLARY_MONO3
        analysis = verdict.certificate.analysis_at(3)
        assert analysis.pn_table == ((1, 4, 3),)

    def test_quartic_3(self):
        verdict = classify(PureFieldParams(2, 2, 3))
        assert verdict.status is Status.MONOGENIC_ZALPHA
        cert = verdict.certificate
        assert {a.prime for a in cert.analyses} == {2, 3}
        for analysis in cert.analyses:
            assert analysis.index.value == 0 and analysis.index.exact

    def test_quintic_7_undetermined_certificate(self):
        verdict = classify(PureFieldParams(5, 1, 7))
        assert verdict.status is Status.UNDETERMINED
        assert verdict.provenance is Provenance.NONE
        cert = verdict.certificate
        assert cert.nu_pivot == 2  # 7^5 - 7 = 16800 = 2^5 * 3 * 5^2 * 7
        analysis = cert.analysis_at(5)
        assert analysis.index.value == 1 and analysis.index.exact
        assert analysis.shape.pairs == ((1, 1), (4, 1))
        assert analysis.pn_table == ((1, 2, 5),)

    def test_octic_33(self):
        # 33 = 1 mod 32
        verdict = classify(PureFieldParams(2, 3, 33))
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.provenance is Provenance.THEOREM_MONO2

    def test_npibodd_generic_prime(self):
        # p = 5: need v_5(m^4 - 1) > 5 and r >= 5; m = 57 has
        # 57^4 = 1 mod 5^6 (57 is a 4th root of unity mod 15625)?
        # instead construct m = 1 + 5^6 = 15626, squarefree
        m = 1 + 5**6
        verdict = classify(PureFieldParams(5, 5, m))
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.provenance is Provenance.THEOREM_NPIBODD
        analysis = verdict.certificate.analysis_at(5)
        assert analysis.comindex_witness() == 1
        # t = P_1 > p = N_1 as the proof structure demands
        assert analysis.shape.count_residue_degree(1) > 5

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            classify(PureFieldParams(2, 2, 80))


class TestClassifyEngineBranch:
    def test_gap_case_is_undetermined(self):
        # p = 2, r = 4, m = 17: m = 1 mod 16 but not mod 32 and r >= 3,
        # so no congruence applies; the engine shape (2,2),(4,1),(8,1)
        # has P_1 = 2 = N_1 and the honest answer is UNDETERMINED
        verdict = classify(PureFieldParams(2, 4, 17))
        assert verdict.status is Status.UNDETERMINED
        analysis = verdict.certificate.analysis_at(2)
        assert analysis.shape.pairs == ((2, 2), (4, 1), (8, 1))
        assert analysis.comindex_witness() is None

    def test_undetermined_small_nu(self):
        # p = 2, r = 2, m = 5: nu = 2, no theorem applies, shape (2,2)
        verdict = classify(PureFieldParams(2, 2, 5))
        assert verdict.status is Status.UNDETERMINED
        analysis = verdict.certificate.analysis_at(2)
        assert analysis.shape.pairs == ((2, 2),)

    def test_negative_m_flagged(self):
        verdict = classify(PureFieldParams(2, 2, -15))
        assert verdict.certificate.negative_m
        # -15 = 1 mod 16, so the quartic congruence fires sign-blind
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.provenance is Provenance.THEOREM_MONO2


class TestDedekind:
    def test_spec_examples(self):
        assert dedekind_divides_index((-17, 0, 0, 0, 1), 2) is True
        assert dedekind_divides_index((-3, 0, 0, 0, 1), 2) is False

    def test_q_dividing_m_never_divides_index(self):
        for p, r, m in [(2, 2, 6), (3, 1, 10), (5, 1, -14), (2, 3, 35)]:
            f = pure_polynomial(PureFieldParams(p, r, m))
            for q in candidate_index_primes(PureFieldParams(p, r, m)):
                if m % q == 0:
                    assert dedekind_divides_index(f, q) is False

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            dedekind_divides_index((1, 0, 1), 4)

    def test_agrees_with_pivot_on_corpus(self):
        rng = random.Random(6)
        cases = 0
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            r = rng.choice([1, 2])
            m = rng.randint(2, 150) * rng.choice([1, -1])
            try:
                params = PureFieldParams(p, r, m)
            except ValidationError:
                continue
            cases += 1
            f = pure_polynomial(params)
            nu = valuation(p, m**p - m)
            assert dedekind_divides_index(f, p) == (nu >= 2), (p, r, m)
        assert cases > 60


class TestCommonIndexDivisor:
    def test_yes_cases(self):
        assert is_common_index_divisor(PureFieldParams(2, 2, 17), 2) is ComIndexEvidence.YES
        assert is_common_index_divisor(PureFieldParams(3, 3, 161), 3) is ComIndexEvidence.YES

    def test_no_evidence(self):
        assert (
            is_common_index_divisor(PureFieldParams(2, 2, 3), 2)
            is ComIndexEvidence.NO_EVIDENCE
        )

    def test_prime_outside_candidates(self):
        # a prime not dividing p*m splits distinctly; never a witness
        assert (
            is_common_index_divisor(PureFieldParams(2, 2, 17), 5)
            is ComIndexEvidence.NO_EVIDENCE
        )


class TestInternalConsistency:
    def test_nu_stability(self):
        rng = random.Random(8)
        checked = 0
        while checked < 60:
            p = rng.choice([2, 3, 5, 7])
            r = rng.randint(1, 4)
            m = rng.randint(2, 400)
            if m % p == 0:
                continue
            checked += 1
            assert valuation(p, m**p - m) == valuation(p, m ** (p**r) - m)

    def test_branch2_shape_bound(self):
        # whenever the odd-prime congruence branch fires, the shape has
        # more than p degree-1 primes
        for p, r, m in [(3, 3, 161), (3, 4, 80), (5, 5, 1 + 5**6)]:
            try:
                params = PureFieldParams(p, r, m)
            except ValidationError:
                continue
            if m % p == 0 or valuation(p, m ** (p - 1) - 1) <= p or r < p:
                continue
            verdict = classify(params)
            analysis = verdict.certificate.analysis_at(p)
            assert analysis.shape.count_residue_degree(1) > p

    def test_mono2_engine_agreement_samples(self):
        for m in (17, 33, 65, 97, 113):
            verdict = classify(PureFieldParams(2, 2, m))
            analysis = verdict.certificate.analysis_at(2)
            assert analysis.pn_table[0] == (1, 3, 2)
        for m in (33, 65, 97, 129):
            verdict = classify(PureFieldParams(2, 3, m))
            assert verdict.status is Status.NOT_MONOGENIC
            witness = verdict.certificate.analysis_at(2).comindex_witness()
            assert witness == 1

    def test_classify_pure_function(self):
        a = classify(PureFieldParams(2, 2, 17))
        b = classify(PureFieldParams(2, 2, 17))
        assert a == b

    def test_certificate_analysis_lookup(self):
        cert = classify(PureFieldParams(2, 2, 3)).certificate
        with pytest.raises(ValidationError):
            cert.analysis_at(7)


class TestEngineDedekindCross:
    def test_regular_index_positivity_matches_dedekind(self):
        # For squarefree monic f with a regular analysis, the engine's
        # exact index bound is positive exactly when Dedekind's criterion
        # says p divides the index.  Two fully independent routes.
        from monogenity.oracle import resultant
        from monogenity.ore import analyze_prime, index_lower_bound
        from monogenity.zpoly import derivative, poly

        rng = random.Random(0)
        checked = 0
        while checked < 300:
            p = rng.choice([2, 3, 5])
            deg = rng.randint(2, 8)
            f = poly([rng.randint(-30, 30) for _ in range(deg)] + [1])
            if len(f) < 3 or resultant(f, derivative(f)) == 0:
                continue
            try:
                reports = analyze_prime(f, p)
            except ValidationError:
                continue  # a lift divides f over Z; outside the contract
            bound = index_lower_bound(reports)
            if not bound.exact:
                continue
            checked += 1
            assert (bound.value > 0) == dedekind_divides_index(f, p), (p, f)


class TestPurePrimeAnalysis:
    def test_uses_base_x_when_q_divides_m(self):
        analysis = pure_prime_analysis(PureFieldParams(2, 2, 6), 3)
        assert analysis.reports[0].phi == (0, 1)
        assert analysis.shape.pairs == ((4, 1),)

    def test_uses_shifted_base_at_p(self):
        analysis = pure_prime_analysis(PureFieldParams(2, 2, 17), 2)
        assert analysis.reports[0].phi == (-17, 1)

    def test_generic_prime(self):
        analysis = pure_prime_analysis(PureFieldParams(2, 2, 17), 5)
        assert analysis.shape is not NOT_REGULAR
        assert analysis.shape.total_degree() == 4


def _squarefree_from(start, step, p):
    """First squarefree m = start + k*step (k >= 0) with |m| >= 2 and p not dividing m."""
    m = start
    while abs(m) < 2 or m % p == 0 or not is_squarefree(m):
        m += step
    return m


def _closed_form_cases():
    cases = [(2, 12, 17), (61, 2, 3)]
    for p in (2, 3, 5, 7):
        r = 1
        while p**r <= 1024:
            deep = p ** (r + 2)
            cases += [
                (p, r, _squarefree_from(10, 1, p)),
                (p, r, _squarefree_from(-6, -1, p)),
                # m = +-1 mod p**(r + 2): v_p(m**n - m) is well above r
                (p, r, _squarefree_from(1 + deep, deep, p)),
                (p, r, _squarefree_from(-1 - deep, -deep, p)),
            ]
            r += 1
    return cases


def _dense_expansion(params):
    """Every coefficient of x**n - m at x - m: by division up to degree 1024,
    by the binomial theorem above it, where division takes seconds."""
    n, m = params.degree, params.m
    if n <= 1024:
        return phi_expansion(pure_polynomial(params), (-m, 1))
    coeffs = [(m**n - m,)] + [(math.comb(n, j) * m ** (n - j),) for j in range(1, n + 1)]
    return PhiExpansion((-m, 1), tuple(coeffs))


class TestClosedFormAtP:
    """The binomial-lemma report at t = p against the dense expansion path."""

    @pytest.mark.parametrize("p, r, m", _closed_form_cases())
    def test_matches_dense_phi_report(self, p, r, m):
        params = PureFieldParams(p, r, m)
        closed = pure_prime_analysis(params, p).reports[0]
        dense = phi_report(pure_polynomial(params), p, (-m, 1), expansion=_dense_expansion(params))
        for name in ("phi", "multiplicity", "points", "polygon", "principal", "index", "regular"):
            assert getattr(closed, name) == getattr(dense, name), name
        assert len(closed.sides) == len(dense.sides)
        for a, b in zip(closed.sides, dense.sides):
            assert a.side == b.side
            assert a.residual.coefficients == b.residual.coefficients
            assert a.factors == b.factors

    def test_m_factored_once_per_field(self, monkeypatch):
        from monogenity import intarith

        m = 1000003 * 1009
        calls = []

        def counting(n, _factorize=intarith.factorize):
            calls.append(n)
            return _factorize(n)

        monkeypatch.setattr(intarith, "factorize", counting)
        verdict = classify(PureFieldParams(3, 2, m))
        assert [n for n in calls if abs(n) == m] == [m]
        assert [q for q, _ in verdict.certificate.discriminant_valuations] == [3, 1009, 1000003]
