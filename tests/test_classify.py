import importlib
import math
import random
import signal

import pytest

from monogenity.classify import Provenance, Status, classify, pure_prime_analysis
from monogenity.errors import InvariantError, ValidationError
from monogenity.general import (
    ComIndexEvidence,
    dedekind_divides_index,
    is_common_index_divisor,
    phi_expansion,
    valued_points,
)
from monogenity.intarith import count_monic_irreducibles, is_squarefree, valuation
from monogenity.oracle import brute_hull
from monogenity import ore, polygon
from monogenity.ore import NOT_REGULAR, PhiReport
from monogenity.zpoly import (
    PhiExpansion,
    PureFieldParams,
    candidate_index_primes,
    pure_polynomial,
    pure_shift_expansion,
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

    @pytest.mark.parametrize(
        "fake_count, p, r, m, found",
        [
            # N_f = 0 makes every P_f a witness, on a field no theorem decides
            (0, 2, 4, 17, "NONE verdict but the engine exhibits a common"),
            # N_f = P_f + 1 takes the witness from a field the theorem decides
            (10**6, 2, 2, 17, "THEOREM_MONO2 verdict but the engine exhibits no common"),
        ],
    )
    def test_witness_checked_against_the_theorems(self, monkeypatch, fake_count, p, r, m, found):
        # the package name classify is the function; its module is in sys.modules
        module = importlib.import_module("monogenity.classify")
        monkeypatch.setattr(module, "_count_monic_irreducibles", lambda q, f: fake_count)
        with pytest.raises(InvariantError, match=found):
            classify(PureFieldParams(p, r, m))


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

    def test_pure_power_reduction(self):
        # x^4096 - 17 = x^4096 mod 17: gbar = x, hbar = fbar / gbar = x^4095
        assert dedekind_divides_index(pure_polynomial(PureFieldParams(2, 12, 17)), 17) is False

    def test_radical_not_dividing_raises(self, monkeypatch):
        # x does not divide x^2 + 1 over F_2, so hbar = fbar / gbar is not exact
        from monogenity import general

        monkeypatch.setattr(general, "ff_factor", lambda field, g: [((0, 1), 2)])
        with pytest.raises(InvariantError):
            dedekind_divides_index((1, 0, 1), 2)

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

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError, match="15 is not prime"):
            is_common_index_divisor(PureFieldParams(2, 2, 17), 15)

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_prime_outside_candidates_in_bounded_time(self):
        # the dense O(n**2) pipeline takes seconds on x**1024 - 17 at 5; the
        # discriminant answers at once
        def expire(signum, frame):
            raise TimeoutError("no answer within 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(2)
        try:
            evidence = is_common_index_divisor(PureFieldParams(2, 12, 17), 5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert evidence is ComIndexEvidence.NO_EVIDENCE

    @pytest.mark.parametrize("p, r, m", [(2, 3, 3), (2, 4, -15), (3, 2, 10), (5, 1, 7), (7, 1, 2)])
    def test_dense_analysis_off_p_m_is_regular_without_witness(self, p, r, m):
        # the theorem behind the shortcut, on the dense pipeline it skips
        params = PureFieldParams(p, r, m)
        for t in (2, 3, 5, 7, 11, 13):
            if t != p and m % t:
                reports = ore.analyze_prime(pure_polynomial(params), t)
                index, shape = ore.index_lower_bound(reports), ore.splitting_shape(reports)
                assert index.value == 0 and index.exact, t
                assert all(e == 1 for e, f in shape.pairs), t
                assert _witnesses(shape, t) == [], t


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
        # 5 divides neither p nor m, so it cannot divide the index; a composite
        # t is "not prime" first (test_composite_rejected_at_every_entry)
        with pytest.raises(ValidationError, match="5 divides neither p nor m"):
            pure_prime_analysis(PureFieldParams(2, 2, 17), 5)


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


def _nu0_against_r(p, r, m):
    """The sign of v_p(m**(n - 1) - 1) - r, read off a residue mod p**(r + 1)."""
    modulus = p ** (r + 1)
    residue = (pow(m, p**r - 1, modulus) - 1) % modulus
    if residue == 0:
        return 1
    return -1 if valuation(p, residue) < r else 0


def _support_cases():
    """(p, r, m, sign of nu0 - r) for every p**r <= 4096, p <= 11: the first
    squarefree m >= 2, p not dividing m, with nu0 < r (only for r >= 2, as
    nu0 >= 1), with nu0 = r (m = 1 mod p**r), and with m = 1 mod p**(r + 2)."""
    cases = []
    for p in (2, 3, 5, 7, 11):
        r = 1
        while p**r <= 4096:
            for sign, start, step in (
                (-1, 2, 1),
                (0, 1 + p**r, p**r),
                (1, 1 + p ** (r + 2), p ** (r + 2)),
            ):
                if sign < 0 and r == 1:
                    continue
                m = start
                while m % p == 0 or not is_squarefree(m) or _nu0_against_r(p, r, m) != sign:
                    m += step
                cases.append((p, r, m, sign))
            r += 1
    return cases


def _differential_grids():
    """Every (p, r) with p <= 13 and p**r <= 1024 whose two periods mod
    p**(r + 3) hold at most 5000 integers: p**r <= 256 at p = 2, 81 at
    p = 3, and (5, 1), (7, 1).  TestClosedFormAtP's dense cases reach
    p = 61 and p**r = 4096."""
    return [
        (p, r)
        for p in (2, 3, 5, 7, 11, 13)
        for r in range(1, 11)
        if p**r <= 1024 and 2 * p ** (r + 3) <= 5000
    ]


def _provenance_by_the_theorems(p, r, m):
    """The paper's statements, each on its own big-integer valuation."""
    if valuation(p, m**p - m) == 1:
        return Provenance.THEOREM_PIB
    if p % 2 and m % p and valuation(p, m ** (p - 1) - 1) > p and r >= p:
        return Provenance.COROLLARY_MONO3 if p == 3 else Provenance.THEOREM_NPIBODD
    if p == 2 and (r == 2 and valuation(2, 1 - m) >= 4 or r >= 3 and valuation(2, 1 - m) >= 5):
        return Provenance.THEOREM_MONO2
    return Provenance.NONE


def _witnesses(shape, p):
    """Every residue degree f with P_f > N_f in the splitting shape at p."""
    assert shape is not NOT_REGULAR
    return [
        f for f in shape.residue_degrees()
        if shape.count_residue_degree(f) > count_monic_irreducibles(p, f)
    ]


class TestClosedFormAtP:
    """The binomial-lemma report at t = p against the dense expansion path."""

    @pytest.mark.parametrize("p, r", _differential_grids())
    def test_class_walk_verdict_reads_nu_alone(self, p, r):
        # classify's proof, walked over two periods mod p**(r + 3), p | m and
        # m < 0 included: each verdict is the paper's, and the engine's witness
        # at p exists exactly on the NOT_MONOGENIC ones
        period = p ** (r + 3)
        statuses = {
            Provenance.THEOREM_PIB: Status.MONOGENIC_ZALPHA,
            Provenance.NONE: Status.UNDETERMINED,
        }
        seen = set()
        for m in range(-2 * period + 1, 2 * period):
            if abs(m) < 2 or not is_squarefree(m):
                continue
            verdict = classify(PureFieldParams(p, r, m))
            cert = verdict.certificate
            assert cert.nu_pivot == valuation(p, m**p - m), m
            assert cert.nu_fermat == (valuation(p, m ** (p - 1) - 1) if m % p else None), m
            assert verdict.provenance is _provenance_by_the_theorems(p, r, m), m
            assert verdict.status is statuses.get(verdict.provenance, Status.NOT_MONOGENIC), m
            for analysis in cert.analyses:
                # pure_prime_analysis's regularity proof: a shape, an exact bound
                assert isinstance(analysis.shape, ore.SplittingShape), (m, analysis.prime)
                assert analysis.index.exact, (m, analysis.prime)
            witnesses = _witnesses(cert.analysis_at(p).shape, p)
            assert bool(witnesses) == (verdict.status is Status.NOT_MONOGENIC), m
            assert cert.comindex_degree == (witnesses[0] if witnesses else None), m
            seen.add(verdict.provenance.value)
        assert {"THEOREM_PIB", "NONE"} <= seen <= {
            "THEOREM_PIB", "THEOREM_NPIBODD", "THEOREM_MONO2", "COROLLARY_MONO3", "NONE"
        }

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("nu_above_p", [0, 1])
    @pytest.mark.parametrize("r_below_p", [1, 0])
    def test_npibodd_boundary(self, p, nu_above_p, r_below_p):
        # nu in {p, p + 1}, r in {p - 1, p}: P_1 = min(nu, r + 1) passes N_1 = p
        # only at nu = p + 1, r = p.  m = 1 + p**nu * y has nu = v_p(m - 1).
        nu, r = p + nu_above_p, p - r_below_p
        y = 1
        while y % p == 0 or not is_squarefree(1 + p**nu * y):
            y += 1
        verdict = classify(PureFieldParams(p, r, 1 + p**nu * y))
        cert = verdict.certificate
        assert cert.nu_pivot == cert.nu_fermat == nu
        assert cert.analysis_at(p).pn_table == ((1, min(nu, r + 1), p),)
        if nu > p and r >= p:
            assert verdict.status is Status.NOT_MONOGENIC
            assert verdict.provenance is (
                Provenance.COROLLARY_MONO3 if p == 3 else Provenance.THEOREM_NPIBODD
            )
            assert (cert.comindex_prime, cert.comindex_degree) == (p, 1)
        else:
            assert verdict.status is Status.UNDETERMINED
            assert (cert.comindex_prime, cert.comindex_degree) == (None, None)

    @pytest.mark.parametrize("p, r", _differential_grids())
    def test_closed_form_matches_the_hull_pipeline(self, p, r):
        # two periods mod p**(r + 3) reach every nu0 <= r + 2, each digit of
        # a_0 and of m mod p, and nu0 >= r + 3; m < 0 included
        period = p ** (r + 3)
        ms = [
            m
            for m in range(-2 * period + 1, 2 * period)
            if abs(m) >= 2 and m % p and is_squarefree(m)
        ]
        nus = set()
        for m in ms:
            params = PureFieldParams(p, r, m)
            shift = pure_shift_expansion(params)
            n = params.degree
            closed = pure_prime_analysis(params, p).reports[0]
            hull = ore._phi_report(p, shift, (range(n + 1), shift.valuations()))
            assert closed.valued == shift and hull.valued == (range(n + 1), shift.valuations())
            for name in PhiReport._fields:
                if name != "valued":
                    assert getattr(closed, name) == getattr(hull, name), (m, name)
            nus.add(min(shift.nu0, r + 3))
        assert nus == set(range(1, r + 4))

    def test_no_hull_or_factorization_at_p(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the hull pipeline ran at t = p")

        monkeypatch.setattr(polygon, "lower_convex_hull", refuse)
        monkeypatch.setattr(ore, "ff_factor", refuse)
        # (2, 3, 17) has the degree-2 side from (0, 4) to (2, 2)
        for p, r, m in ((2, 3, 17), (2, 12, 3), (3, 7, 10), (7, 2, 2), (61, 2, 3)):
            analysis = pure_prime_analysis(PureFieldParams(p, r, m), p)
            assert analysis.shape.total_degree() == p**r
        sides = pure_prime_analysis(PureFieldParams(2, 3, 17), 2).reports[0].sides
        assert [(a.side.degree, a.factor_strings()) for a in sides] == [
            (2, ("y^2 + y + 1",)), (1, ("y + 1",)), (1, ("y + 1",))
        ]
        with pytest.raises(AssertionError, match="hull pipeline"):
            pure_prime_analysis(PureFieldParams(2, 3, 15), 5)

    @pytest.mark.parametrize("p, r, m, sign", _support_cases())
    def test_support_hull_matches_brute_hull(self, p, r, m, sign):
        # the closed-form vertices, the points the polygon rests on, against
        # the oracle's hull over all n + 1 points
        params = PureFieldParams(p, r, m)
        expansion = pure_shift_expansion(params)
        assert (expansion.nu0 > r) - (expansion.nu0 < r) == sign
        report = pure_prime_analysis(params, p).reports[0]
        support, points = report.polygon.vertices, list(enumerate(expansion.valuations()))
        assert support[0] == (0, expansion.nu0) and support[-1] == (p**r, 0)
        assert set(support) <= set(points)
        brute = brute_hull(points)
        assert report.polygon.vertices == brute.vertices
        assert report.polygon.sides == brute.sides

    @pytest.mark.parametrize("p, r, m", _closed_form_cases())
    def test_matches_dense_phi_report(self, p, r, m):
        params = PureFieldParams(p, r, m)
        closed = pure_prime_analysis(params, p).reports[0]
        expansion = _dense_expansion(params)
        dense = ore._phi_report(p, expansion, tuple(zip(*valued_points(expansion, p))))
        for name in ("phi", "multiplicity", "points", "polygon", "principal", "index", "regular"):
            assert getattr(closed, name) == getattr(dense, name), name
        assert len(closed.sides) == len(dense.sides)
        for a, b in zip(closed.sides, dense.sides):
            assert a.side == b.side
            assert a.residual.coefficients == b.residual.coefficients
            assert a.factors == b.factors

    @pytest.mark.parametrize(
        "p, r", [(p, r) for p in (2, 3, 5, 7) for r in range(1, 9) if p**r <= 343]
    )
    def test_points_match_dense_valued_points(self, p, r):
        from monogenity.general import divmod_monic

        def division_tower(f, phi):  # not phi_expansion's fast paths at x and x - m
            coeffs = []
            while f:
                f, rem = divmod_monic(f, phi)
                coeffs.append(rem)
            return PhiExpansion(phi, tuple(coeffs))

        # m = 1 mod p**2 puts nu0 past 1; 2 * 3 * 5 * 7 makes every p divide m
        for m in ({2: 17, 3: 10, 5: 26, 7: 197}[p], -6 if p > 3 else 5, 210):
            params = PureFieldParams(p, r, m)
            f = pure_polynomial(params)
            for report in pure_prime_analysis(params, p).reports:
                dense = valued_points(division_tower(f, report.phi), p)
                assert report.points == tuple(tuple(pt) for pt in dense), (p, r, m)
            q = max(params.m_primes)
            for report in pure_prime_analysis(params, q).reports:
                dense = valued_points(division_tower(f, report.phi), q)
                assert report.points == tuple(tuple(pt) for pt in dense), (p, r, m, q)

    def test_m_factored_once_per_field(self, monkeypatch):
        from monogenity import intarith

        m = 1000003 * 1009
        calls = []

        def counting(n, _prime_powers=intarith._prime_powers):
            calls.append(n)
            return _prime_powers(n)

        # factorize and the squarefree check both read m's primes off _prime_powers
        monkeypatch.setattr(intarith, "_prime_powers", counting)
        verdict = classify(PureFieldParams(3, 2, m))
        assert [n for n in calls if abs(n) == m] == [m]
        assert [q for q, _ in verdict.certificate.discriminant_valuations] == [3, 1009, 1000003]


class TestFlatInN:
    """classify builds nothing of size n = p**r: no valuation column, no
    x**n - m tuple, no n-entry expansion at t | m."""

    @pytest.mark.parametrize("p, r, m", [(2, 20, 3), (3, 12, 2)])
    def test_peak_allocation_under_one_mib(self, p, r, m):
        import tracemalloc

        params = PureFieldParams(p, r, m)
        tracemalloc.start()
        try:
            verdict = classify(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.provenance is Provenance.THEOREM_PIB
        assert [a.prime for a in verdict.certificate.analyses] == sorted({p, m})
        assert peak < 2**20, peak


class TestPrimeChecks:
    """Primes are checked once at the public boundary, not in inner loops."""

    def test_classify_checks_few_primes(self, monkeypatch):
        from monogenity import cli, intarith, residue, zpoly

        calls = []

        def counting(n, _is_prime=intarith.is_prime):
            calls.append(n)
            return _is_prime(n)

        for module in (intarith, zpoly, cli):
            monkeypatch.setattr(module, "is_prime", counting)
        # every residue field is built afresh, the most checks a call can make
        residue.residue_field.cache_clear()
        verdict = classify(PureFieldParams(7, 1, 10001))
        assert verdict.provenance is Provenance.THEOREM_PIB
        assert [a.prime for a in verdict.certificate.analyses] == [7, 73, 137]
        # p when the params are made, then once per residue field F_7, F_73, F_137
        assert len(calls) <= 7
        assert sorted(set(calls)) == [7, 73, 137]

    @pytest.mark.parametrize("q", [4, 9, 15])
    def test_composite_rejected_at_every_entry(self, q):
        from monogenity import general, intarith, ore, polygon, residue, zpoly

        params = PureFieldParams(2, 1, 30)  # 15 divides m
        f = (-12, 0, 1)
        expansion = phi_expansion(f, (0, 1))
        side = polygon.lower_convex_hull([(0, 2), (2, 0)]).sides[0]
        entries = [
            lambda: intarith.valuation(q, 12),
            lambda: intarith.binomial_valuation(q, 1, 1),
            lambda: intarith.count_monic_irreducibles(q, 2),
            lambda: zpoly.discriminant_valuation(params, q),
            lambda: residue.residue_field(q, (0, 1)),
            lambda: residue.residue_class((12,), q, (0, 1), 0),
            lambda: general.valued_points(expansion, q),
            lambda: polygon.residual_polynomial(expansion, q, (0, 1), side),
            lambda: ore.phi_report(f, q, (0, 1)),
            lambda: ore.analyze_prime(f, q),
            lambda: pure_prime_analysis(params, q),
            lambda: dedekind_divides_index(f, q),
        ]
        for entry in entries:
            with pytest.raises(ValidationError, match="not prime"):
                entry()
