"""Output checks that do not trust the engine under test.

Verdicts are recomputed from (p, r, m) with plain integer arithmetic
(pow, valuations, the binomial lemma).  Polygons are rebuilt from points
recomputed here and compared through the brute-force oracles of
`monogenity.oracle`, which share no code with the engine's hull and
index routines.  Every check returns a list of failure messages; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache


def val(p: int, n: int):
    """v_p(n) by repeated division; None stands for v_p(0) = infinity."""
    if n == 0:
        return None
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of |n| by plain trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def squarefree_flags(lo: int, hi: int) -> dict[int, bool]:
    """Squarefreeness of every m in [lo, hi] (lo >= 2) by sieving with q*q."""
    flags = {m: True for m in range(lo, hi + 1)}
    q = 2
    while q * q <= hi:
        sq = q * q
        for m in range(-(-lo // sq) * sq, hi + 1, sq):
            flags[m] = False
        q += 1
    return flags


def expected_verdict(p: int, r: int, m: int) -> tuple[str, str]:
    """Status and provenance of the theorem branches, in the classifier's order.

    UNDETERMINED/NONE stands for "no theorem applies"; the engine may then
    still prove non-monogenity through a common index divisor, which
    `verdict_failures` accepts only after an independent recount.
    """
    if val(p, m**p - m) == 1:
        return "MONOGENIC_ZALPHA", "THEOREM_PIB"
    if p % 2 and m % p and val(p, m ** (p - 1) - 1) > p and r >= p:
        return "NOT_MONOGENIC", "COROLLARY_MONO3" if p == 3 else "THEOREM_NPIBODD"
    if p == 2 and ((r == 2 and val(2, 1 - m) >= 4) or (r >= 3 and val(2, 1 - m) >= 5)):
        return "NOT_MONOGENIC", "THEOREM_MONO2"
    return "UNDETERMINED", "NONE"


@lru_cache(maxsize=None)
def monic_irreducible_count(p: int, f: int) -> int:
    from monogenity import oracle

    return oracle.enumerate_monic_irreducibles(p, f)


def verdict_failures(p, r, m, status, provenance, pn_pairs) -> list[str]:
    """Compare one verdict with `expected_verdict`.

    pn_pairs holds the (f, P_f) counts the engine reports at p; an
    ENGINE_COMINDEX verdict stands only if some P_f exceeds the number of
    monic irreducibles of degree f, counted by exhaustive enumeration.
    """
    want = expected_verdict(p, r, m)
    got = (status, provenance)
    if got == want:
        return []
    if want[0] == "UNDETERMINED" and got == ("NOT_MONOGENIC", "ENGINE_COMINDEX"):
        for f, p_count in pn_pairs:
            if p**f <= 2**20 and p_count > monic_irreducible_count(p, f):
                return []
        return [f"(p={p}, r={r}, m={m}): ENGINE_COMINDEX without a rechecked P_f > N_f"]
    return [f"(p={p}, r={r}, m={m}): verdict {got}, expected {want}"]


# ---------------------------------------------------------------------------
# polygons


def points_at(p: int, r: int, m: int, q: int) -> tuple[str, list[tuple[int, int]]]:
    """Expansion base and valued points of x**(p**r) - m at the prime q.

    The classifier expands at x when q | m (points (0, 1) and (n, 0), m
    being squarefree) and at x - m when q = p does not divide m; there
    a_j = C(n, j) m**(n - j), whose valuation is r - v_p(j) for 0 < j < n
    by the binomial lemma, and a_0 = m**n - m.
    """
    n = p**r
    if m % q == 0:
        return "x", [(0, 1), (n, 0)]
    if q != p:
        raise ValueError(f"prime {q} is neither p nor a divisor of m")
    base = f"x - {m}" if m > 0 else f"x + {-m}"
    points = []
    v0 = val(p, m**n - m)
    if v0 is not None:
        points.append((0, v0))
    points.extend((j, r - val(p, j)) for j in range(1, n))
    points.append((n, 0))
    return base, points


def polygon_failures(points, vertices, index, deg_phi: int, tag: str) -> list[str]:
    """Engine hull vertices and lattice index against the brute-force oracles."""
    from monogenity import oracle, polygon

    hull = oracle.brute_hull(points)
    want_vertices = [tuple(v) for v in hull.vertices]
    out = []
    if [tuple(v) for v in vertices] != want_vertices:
        out.append(f"{tag}: hull vertices {list(vertices)}, oracle {want_vertices}")
    principal = polygon.NewtonPolygon(tuple(s for s in hull.sides if s.slope < 0))
    want_index = deg_phi * oracle.brute_phi_index(principal)
    if index != want_index:
        out.append(f"{tag}: index {index}, oracle {want_index}")
    return out


# ---------------------------------------------------------------------------
# mono analyze --format json


def analyze_failures(p: int, r: int, m: int, text: str) -> list[str]:
    """Check one `mono analyze --format json` document for the field (p, r, m)."""
    tag = f"analyze (p={p}, r={r}, m={m})"
    try:
        doc = json.loads(text)
        verdict = doc["verdict"]
        cert = doc["certificate"]
        n = p**r
        out = []
        if doc["input"] != {"p": p, "r": r, "m": m}:
            out.append(f"{tag}: input echoed as {doc['input']}")
        want_poly = f"x^{n} - {m}" if m > 0 else f"x^{n} + {-m}"
        if cert["polynomial"] != want_poly:
            out.append(f"{tag}: polynomial {cert['polynomial']!r}")
        if cert["nu_pivot"] != val(p, m**p - m):
            out.append(f"{tag}: nu_pivot {cert['nu_pivot']}")
        want_fermat = val(p, m ** (p - 1) - 1) if m % p else None
        if cert["nu_fermat"] != want_fermat:
            out.append(f"{tag}: nu_fermat {cert['nu_fermat']}, expected {want_fermat}")
        if cert["negative_m"] != (m < 0):
            out.append(f"{tag}: negative_m {cert['negative_m']}")
        candidates = sorted({p} | set(prime_factors(m)))
        want_disc = {
            str(q): (r * n if q == p else 0) + (n - 1) * val(q, m) for q in candidates
        }
        if cert["discriminant_valuations"] != want_disc:
            out.append(f"{tag}: discriminant valuations {cert['discriminant_valuations']}")
        primes = candidates if verdict["provenance"] == "THEOREM_PIB" else [p]
        if sorted(cert["primes"], key=int) != [str(q) for q in primes]:
            out.append(f"{tag}: analysed primes {sorted(cert['primes'])}, expected {primes}")
            return out
        for q in primes:
            out.extend(_prime_failures(p, r, m, q, cert["primes"][str(q)], tag))
        pn_pairs = [(e["f"], e["P"]) for e in cert["primes"][str(p)]["pn_table"]]
        out.extend(verdict_failures(p, r, m, verdict["status"], verdict["provenance"], pn_pairs))
        return out
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{tag}: malformed output ({type(exc).__name__}: {exc})"]


def _prime_failures(p, r, m, q, analysis, tag) -> list[str]:
    tag = f"{tag} at {q}"
    factors = analysis["factors"]
    if len(factors) != 1:
        return [f"{tag}: {len(factors)} factors, expected one"]
    factor = factors[0]
    base, points = points_at(p, r, m, q)
    out = []
    if factor["phi"] != base:
        out.append(f"{tag}: base {factor['phi']!r}, expected {base!r}")
    if [tuple(pt) for pt in factor["points"]] != points:
        out.append(f"{tag}: points differ from the binomial-lemma points")
    out.extend(polygon_failures(points, factor["vertices"], factor["index"], 1, tag))
    bound = analysis["index_bound"]
    if bound != {"value": factor["index"], "exact": factor["regular"]}:
        out.append(f"{tag}: index bound {bound}")
    for entry in analysis["pn_table"]:
        f = entry["f"]
        if q**f <= 2**20 and entry["N"] != monic_irreducible_count(q, f):
            out.append(f"{tag}: N_{f} = {entry['N']}")
    return out


# ---------------------------------------------------------------------------
# mono scan (CSV)

SCAN_HEADER = [
    "m", "p", "r", "status", "provenance", "nu", "index_bound",
    "index_exact", "P1", "N1", "shape", "skipped_reason",
]


def scan_failures(p: int, r: int, ms: list[int], text: str, squarefree: dict[int, bool]):
    """Check one scan CSV.  Returns (failed m values, messages)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SCAN_HEADER or len(rows) != len(ms) + 1:
        return set(ms), [f"scan p={p} r={r} m={ms[0]}..{ms[-1]}: malformed CSV"]
    failed, messages = set(), []
    for m, row in zip(ms, rows[1:]):
        rec = dict(zip(SCAN_HEADER, row))
        problems = _row_failures(p, r, m, rec, squarefree)
        if problems:
            failed.add(m)
            messages.extend(problems)
    return failed, messages


def _row_failures(p, r, m, rec, squarefree) -> list[str]:
    tag = f"scan row (p={p}, r={r}, m={m})"
    if (rec["m"], rec["p"], rec["r"]) != (str(m), str(p), str(r)):
        return [f"{tag}: row is for m={rec['m']}, p={rec['p']}, r={rec['r']}"]
    if m in (-1, 0, 1):
        want_skip = "excluded_m"
    elif not squarefree[m]:
        want_skip = "not_squarefree"
    else:
        want_skip = ""
    if rec["skipped_reason"] != want_skip:
        return [f"{tag}: skipped_reason {rec['skipped_reason']!r}, expected {want_skip!r}"]
    if want_skip:
        return []
    out = []
    if rec["nu"] != str(val(p, m**p - m)):
        out.append(f"{tag}: nu {rec['nu']}")
    if rec["N1"] != str(p):
        out.append(f"{tag}: N1 {rec['N1']}")
    if rec["provenance"] == "THEOREM_PIB" and (rec["index_bound"], rec["index_exact"]) != ("0", "true"):
        out.append(f"{tag}: PIB with index bound {rec['index_bound']} ({rec['index_exact']})")
    pn_pairs = [(1, int(rec["P1"]))] if rec["P1"] else []
    out.extend(verdict_failures(p, r, m, rec["status"], rec["provenance"], pn_pairs))
    return out


# ---------------------------------------------------------------------------
# the general engine (analyze_prime, index_lower_bound, splitting_shape)


def general_failures(case, reports, bound, shape) -> list[str]:
    """Check the engine on one generated polynomial.

    `case` knows the base phi, its multiplicity k and the valuations a_i
    it was built with, so the valued points are known in advance; the
    expansion must also reconstruct f, hull and index must match the
    oracles, and an exact bound must agree with Dedekind's criterion.
    """
    from monogenity import zpoly
    from monogenity.classify import dedekind_divides_index

    f, p = case.f, case.p
    tag = f"general f#{case.ident} (p={p}, deg phi={len(case.phi) - 1}, k={case.k})"
    if len(reports) != 1:
        return [f"{tag}: {len(reports)} reports, expected one"]
    rep = reports[0]
    out = []
    if tuple(rep.phi) != case.phi or rep.multiplicity != case.k:
        out.append(f"{tag}: base {rep.phi} multiplicity {rep.multiplicity}")
    expansion = zpoly.phi_expansion(f, rep.phi)
    if expansion.reconstruct() != f:
        out.append(f"{tag}: phi-expansion does not reconstruct f")
    points = []
    for i, a in enumerate(expansion.coefficients):
        vs = [val(p, c) for c in a if c]
        if vs:
            points.append((i, min(vs)))
    if [tuple(pt) for pt in rep.points] != points:
        out.append(f"{tag}: points differ from the valuations of the expansion")
    if points[: case.k + 1] != case.points:
        out.append(f"{tag}: points {points[: case.k + 1]}, built as {case.points}")
    vertices = [(v.i, v.v) for v in rep.polygon.vertices]
    out.extend(polygon_failures(points, vertices, rep.index, len(case.phi) - 1, tag))
    if (bound.value, bound.exact) != (rep.index, rep.regular):
        out.append(f"{tag}: index bound {bound}")
    if bound.exact:
        if dedekind_divides_index(f, p) != (bound.value > 0):
            out.append(f"{tag}: Dedekind's criterion disagrees with index {bound.value}")
        if sum(e * fd for e, fd in shape.pairs) != len(f) - 1:
            out.append(f"{tag}: splitting shape {shape} does not cover degree {len(f) - 1}")
    return out
