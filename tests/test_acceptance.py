"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion here is exact; there are no tolerances anywhere.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import os
import random

import pytest

from monogenity.classify import Status, classify
from monogenity.errors import ValidationError
from monogenity.intarith import (
    binomial_valuation,
    count_monic_irreducibles,
    is_squarefree,
    valuation,
)
from monogenity.oracle import (
    brute_hull,
    brute_phi_index,
    enumerate_monic_irreducibles,
    factorial_valuation_table,
)
from monogenity.ore import dedekind_divides_index, lower_convex_hull
from monogenity.polygon import NewtonPolygon, Side, ValuedPoint, phi_index, principal_part
from monogenity.render import figure_for, render_svg
from monogenity.zpoly import PureFieldParams, candidate_index_primes, pure_polynomial


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")


def _squarefree_range(lo: int, hi: int, step: int = 1, start=None):
    first = lo if start is None else start
    return [m for m in range(first, hi + 1, step) if is_squarefree(m)]


def polygon_from_vertices(vertices) -> NewtonPolygon:
    pts = [ValuedPoint(i, v) for i, v in vertices]
    return NewtonPolygon(tuple(Side(a, b) for a, b in zip(pts, pts[1:])))


def test_criterion_1_binomial_lemma():
    checks = 0
    mismatches = []
    for p in (2, 3, 5, 7):
        r_max = 1
        while p ** (r_max + 1) <= 2**13:
            r_max += 1
        table = factorial_valuation_table(p, p**r_max)
        for r in range(1, r_max + 1):
            n = p**r
            for j in range(1, n):
                engine = binomial_valuation(p, r, j)
                oracle = table[n] - table[j] - table[n - j]
                checks += 1
                if engine != oracle:
                    mismatches.append((p, r, j, engine, oracle))
    ok = not mismatches and checks > 10**4
    _report(1, "binomial valuation vs factorial oracle", ok, f"{checks} checks")
    assert ok, mismatches[:10]


def test_criterion_2_figure_1_index():
    polygon = polygon_from_vertices([(0, 5), (1, 3), (5, 1), (9, 0)])
    value = phi_index(polygon, 1)
    ok = value == 9
    _report(2, "nine lattice points under the reference polygon", ok, f"got {value}")
    assert ok


def test_criterion_3_figure_2_pipeline():
    params = PureFieldParams(3, 3, 161)
    verdict = classify(params)
    analysis = verdict.certificate.analysis_at(3)
    report = analysis.reports[0]
    vertices_ok = [tuple(v) for v in report.polygon.vertices] == [
        (0, 4), (1, 3), (3, 2), (9, 1), (27, 0),
    ]
    shape_ok = analysis.shape.pairs == (
        (1, 1), (2, 1), (6, 1), (18, 1),
    )
    degree_ok = analysis.shape.total_degree() == 27
    verdict_ok = verdict.status is Status.NOT_MONOGENIC
    ok = vertices_ok and shape_ok and degree_ok and verdict_ok
    _report(3, "27th root of 161: polygon, shape, verdict", ok)
    assert vertices_ok and shape_ok and degree_ok and verdict_ok


def test_criterion_4_seventh_power_congruence_scan():
    bad_classes = {1, 18, 19, 30, 31, 48}
    failures = []
    checked = 0
    for r in (1, 2):
        for m in _squarefree_range(2, 2000):
            expected = (m % 7 == 0) or (m % 49 not in bad_classes)
            verdict = classify(PureFieldParams(7, r, m))
            got = verdict.status is Status.MONOGENIC_ZALPHA
            checked += 1
            if got != expected:
                failures.append((r, m, verdict.status))
    ok = not failures
    _report(4, "degree 7^r congruence classes match", ok, f"{checked} fields")
    assert ok, failures[:10]


def test_criterion_5_quartic_and_octic_congruences():
    failures = []
    quartic = _squarefree_range(17, 4000, step=16)
    for m in quartic:
        verdict = classify(PureFieldParams(2, 2, m))
        analysis = verdict.certificate.analysis_at(2)
        if verdict.status is not Status.NOT_MONOGENIC:
            failures.append((2, m, verdict.status))
        elif analysis.pn_table != ((1, 3, 2),):
            failures.append((2, m, analysis.pn_table))
    octic = _squarefree_range(33, 4000, step=32)
    for m in octic:
        verdict = classify(PureFieldParams(2, 3, m))
        if verdict.status is not Status.NOT_MONOGENIC:
            failures.append((3, m, verdict.status))
    ok = not failures
    _report(
        5,
        "m = 1 mod 16 quartic / m = 1 mod 32 octic are never monogenic",
        ok,
        f"{len(quartic)} + {len(octic)} fields",
    )
    assert ok, failures[:10]


def test_criterion_6_pivot_one_scan():
    failures = []
    count = 0
    for m in range(2, 1001):
        if m % 4 not in (2, 3) or not is_squarefree(m):
            continue
        for r in (1, 2, 3, 4):
            count += 1
            verdict = classify(PureFieldParams(2, r, m))
            if verdict.status is not Status.MONOGENIC_ZALPHA:
                failures.append((r, m, verdict.status))
    ok = not failures
    _report(6, "m = 2,3 mod 4 always monogenic for 2-power degrees", ok, f"{count} fields")
    assert ok, failures[:10]


def test_criterion_7_dedekind_cross_validation():
    failures = []
    checks = 0
    table = [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
    for absolute in range(2, 201):
        if not is_squarefree(absolute):
            continue
        for m in (absolute, -absolute):
            for p, r in table:
                params = PureFieldParams(p, r, m)
                f = pure_polynomial(params)
                expected = valuation(p, m**p - m) >= 2
                checks += 1
                if dedekind_divides_index(f, p) != expected:
                    failures.append(("pivot", p, r, m))
                for q in candidate_index_primes(params):
                    if m % q:
                        continue
                    checks += 1
                    if dedekind_divides_index(f, q) is not False:
                        failures.append(("divisor", q, r, m))
    ok = not failures
    _report(7, "Dedekind criterion agreement", ok, f"{checks} checks")
    assert ok, failures[:10]


def test_criterion_8_property_suites():
    rng = random.Random(20240501)
    hull_failures = 0
    index_failures = 0
    for _ in range(1000):
        size = rng.randint(1, 200)
        abscissas = rng.sample(range(220), size) if size <= 220 else range(size)
        points = [ValuedPoint(i, rng.randint(0, 24)) for i in abscissas]
        engine = lower_convex_hull(points)
        if engine.vertices != brute_hull(points).vertices:
            hull_failures += 1
            continue
        principal = principal_part(engine)
        if phi_index(principal, 1) != brute_phi_index(principal):
            index_failures += 1
    hull_ok = hull_failures == 0 and index_failures == 0

    sum_ef_failures = []
    for p, r, m_range in ((2, 2, range(2, 60)), (3, 2, range(2, 40)), (7, 1, range(2, 40))):
        for m in m_range:
            try:
                params = PureFieldParams(p, r, m)
            except ValidationError:
                continue
            verdict = classify(params)
            for analysis in verdict.certificate.analyses:
                if analysis.shape.total_degree() != params.degree:
                    sum_ef_failures.append((p, r, m, analysis.prime))
    sum_ef_ok = not sum_ef_failures

    nf_ok = all(
        count_monic_irreducibles(p, f) == enumerate_monic_irreducibles(p, f)
        for p in (2, 3, 5)
        for f in (1, 2, 3)
    )

    nu_failures = []
    seen = 0
    while seen < 200:
        p = rng.choice([2, 3, 5, 7])
        r = rng.randint(1, 4)
        m = rng.randint(2, 500)
        if m % p == 0:
            continue
        seen += 1
        if valuation(p, m**p - m) != valuation(p, m ** (p**r) - m):
            nu_failures.append((p, r, m))
    nu_ok = not nu_failures

    ok = hull_ok and sum_ef_ok and nf_ok and nu_ok
    _report(
        8,
        "property suites (hull oracle, lattice count, sum e*f, N_f, nu stability)",
        ok,
        f"hull fails {hull_failures}, index fails {index_failures}",
    )
    assert hull_ok
    assert sum_ef_ok, sum_ef_failures[:5]
    assert nf_ok
    assert nu_ok, nu_failures[:5]


def test_criterion_9_determinism(tmp_path, monkeypatch):
    from monogenity import cli
    from monogenity.cli import main

    monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)  # 119 rows still start 8 workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)

    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["scan", "--p", "2", "--r", "3", "--m-from", "2", "--m-to", "120"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--jobs", "8"]) == 0
    scan_ok = serial.read_bytes() == parallel.read_bytes()

    fig_a = render_svg(figure_for(PureFieldParams(3, 3, 161), 3))
    fig_b = render_svg(figure_for(PureFieldParams(3, 3, 161), 3))
    svg_ok = fig_a.encode() == fig_b.encode()

    ok = scan_ok and svg_ok
    _report(9, "scan and SVG byte determinism", ok)
    assert scan_ok
    assert svg_ok


def test_undetermined_region_reported_honestly():
    # where no theorem applies and the engine finds no witness, the
    # verdict must stay UNDETERMINED rather than guess
    for p, r, m in ((5, 1, 7), (2, 2, 5), (2, 4, 17), (3, 2, 82)):
        verdict = classify(PureFieldParams(p, r, m))
        assert verdict.status is Status.UNDETERMINED, (p, r, m, verdict.status)
