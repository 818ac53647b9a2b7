"""The four benchmark workloads: inputs, one timed call, and output checks.

Every workload is a closed loop with one caller: the next call starts
when the previous one has returned.  A workload hands run.py a plan,
an endless sequence of passes over units; one unit is one timed call
(one `mono analyze`, one `mono scan` over a window of m, or one run of
the general engine on a polynomial).  The seed only shapes the plan; the
program sees nothing but the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import checks

# The ROADMAP latency ladder: every provenance that fires, degrees 4..4096.
# The last anchor has a 16-digit m whose factorization by trial division
# dominates its time, the one rung where intarith leads.
ANCHORS = (
    (2, 2, 17), (3, 3, 161), (7, 1, 2), (5, 1, 7), (3, 5, 10), (2, 10, 33),
    (3, 7, 10), (7, 4, 2), (5, 5, 7), (61, 2, 3), (2, 12, 3), (2, 12, 17),
    (3, 1, 1000003 * 1000000007),
)
N4096 = tuple(a for a in ANCHORS if a[0] ** a[1] == 4096)


@dataclass(frozen=True)
class Unit:
    key: str  # names the input; equal keys must give byte-equal output
    fields: int
    args: tuple


def capture(argv) -> tuple[int, str]:
    """Run `mono` in-process and return its exit code and standard output."""
    from monogenity import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def analyze(p: int, r: int, m: int) -> str:
    argv = ["analyze", "--p", str(p), "--r", str(r), "--m", str(m), "--format", "json"]
    code, text = capture(argv)
    if code != 0:
        raise RuntimeError(f"mono analyze exited with {code}")
    return text


def anchor_unit(anchor) -> Unit:
    p, r, m = anchor
    return Unit(f"analyze p={p} r={r} m={m}", 1, anchor)


class AnalyzeLadder:
    name = "analyze_ladder"
    loop = "closed loop, 1 caller, in-process `mono analyze --format json`"
    workers = 1
    seed_meaning = "shuffles the anchor order within each pass"

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)

    def passes(self):
        while True:
            yield [anchor_unit(a) for a in self.rng.sample(ANCHORS, len(ANCHORS))]

    def warmup(self):
        analyze(2, 2, 17)

    def call(self, unit: Unit, jobs=None):
        return analyze(*unit.args)

    def failures(self, unit: Unit, output: str):
        problems = checks.analyze_failures(*unit.args, output)
        return unit.fields if problems else 0, problems


class Scan:
    """`mono scan` over consecutive windows of m starting at a seeded point."""

    loop = "closed loop, 1 caller, in-process `mono scan` over consecutive m-windows"
    seed_meaning = "picks where the first window starts"

    def __init__(self, seed: int, out_dir: Path):
        self.start = random.Random(seed).randrange(*self.start_range)
        self.out = out_dir / f"{self.name}.csv"
        self.squarefree: dict[int, bool] = {}

    def passes(self):
        for k in itertools.count():
            lo = self.start + k * self.window
            hi = lo + self.window - 1
            yield [Unit(f"scan p={self.p} r={self.r} m={lo}..{hi}", self.window, (lo, hi))]

    def warmup(self):
        lo = self.start_range[0] - 10
        self.call(Unit("warm-up", 10, (lo, lo + 9)))

    def call(self, unit: Unit, jobs=None):
        lo, hi = unit.args
        argv = [
            "scan", "--p", str(self.p), "--r", str(self.r), "--m-from", str(lo),
            "--m-to", str(hi), "--out", str(self.out), "--format", "csv",
            "--jobs", str(jobs or self.workers),
        ]
        code, _ = capture(argv)
        if code != 0:
            raise RuntimeError(f"mono scan exited with {code}")
        return self.out.read_text(encoding="utf-8")

    def failures(self, unit: Unit, output: str):
        lo, hi = unit.args
        if hi not in self.squarefree:
            self.squarefree.update(checks.squarefree_flags(lo, hi + 100 * self.window))
        failed, problems = checks.scan_failures(
            self.p, self.r, list(range(lo, hi + 1)), output, self.squarefree
        )
        return len(failed), problems


class ScanDeg7(Scan):
    name = "scan_deg7"
    p, r, window, workers = 7, 1, 100, 1
    start_range = (10000, 12000)


class ScanDeg256Jobs2(Scan):
    name = "scan_deg256_jobs2"
    p, r, window, workers = 2, 8, 100, 2
    start_range = (1000, 1400)


# ---------------------------------------------------------------------------
# the general engine


@dataclass(frozen=True)
class Case:
    """f = phi**k + sum_{i<k} p**a_i c_i phi**i, lifted to be Eisenstein at q."""

    ident: int
    p: int
    phi: tuple
    k: int
    points: list  # [(i, a_i) for i < k] + [(k, 0)], known before the engine runs
    f: tuple


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _has_factor_mod(g, d, p) -> bool:
    """Does a monic polynomial of degree d divide g over F_p?  Brute force."""
    for tail in itertools.product(range(p), repeat=d):
        rem = list(g)
        for shift in range(len(g) - d - 1, -1, -1):
            c = rem[shift + d] % p
            for j, t in enumerate(tail + (1,)):
                rem[shift + j] -= c * t
        if all(c % p == 0 for c in rem[:d]):
            return True
    return False


def make_case(ident: int, rng: random.Random) -> Case:
    """One polynomial; its valued points and residual polynomials depend on
    `ident` alone, while `rng` picks its higher p-adic digits and its lift.

    The residues fix how much F_q factoring a case needs (how often an
    exhaustive equal-degree split runs, and how far it scans), so holding
    them fixed gives every seed the same mix of residue-field work.
    (p, deg phi, k) also runs through all 84 classes in turn.
    """
    shape = random.Random(ident)
    p = (2, 3, 5, 7)[ident % 4]
    d = (2, 3, 4)[ident // 4 % 3]
    k = 2 + ident // 12 % 7
    while True:
        phi = tuple(shape.randrange(p) for _ in range(d)) + (1,)
        if not any(_has_factor_mod(phi, e, p) for e in range(1, d // 2 + 1)):
            break
    a = [shape.randint(1, k - i + 1) for i in range(k)]
    big = p ** (max(a) + 1)  # adding multiples of this leaves the points alone
    target = [0] * (k * d + 1)
    phi_power = [1]
    for i in range(k):
        c = [shape.randrange(p) for _ in range(d)]
        c[shape.randrange(d)] = shape.randrange(1, p)  # c_i is a unit: the point is (i, a_i)
        c = [x + p * rng.randrange(p * p) for x in c]
        for j, x in enumerate(_poly_mul([x * p ** a[i] for x in c], phi_power)):
            target[j] += x
        phi_power = _poly_mul(phi_power, phi)
    for j, x in enumerate(phi_power):
        target[j] += x
    # Eisenstein at q proves f irreducible
    q = rng.choice([q for q in (11, 13, 17, 19) if q != p])
    inv = pow(big, -1, q * q)
    f = list(target)
    for j in range(k * d):
        u = rng.randrange(1, q) if j == 0 else rng.randrange(q)
        f[j] += big * ((q * u - target[j]) * inv % (q * q))
    points = [(i, a[i]) for i in range(k)] + [(k, 0)]
    return Case(ident, p, phi, k, points, tuple(f))


class EngineGeneral:
    name = "engine_general"
    loop = "closed loop, 1 caller, in-process analyze_prime + index_lower_bound + splitting_shape"
    workers = 1
    seed_meaning = "picks the higher p-adic digits and Eisenstein lift of 1008 polynomials, and their order"
    size, chunk = 1008, 48  # 12 polynomials per class; one pass is one chunk

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.cases = [make_case(i, rng) for i in range(self.size)]
        rng.shuffle(self.cases)

    def passes(self):
        units = [Unit(f"general f#{c.ident}", 1, c) for c in self.cases]
        while True:
            for i in range(0, len(units), self.chunk):
                yield units[i : i + self.chunk]

    def warmup(self):
        self.call(Unit("warm-up", 1, self.cases[0]))

    def call(self, unit: Unit, jobs=None):
        from monogenity import ore

        case = unit.args
        reports = ore.analyze_prime(case.f, case.p)
        bound = ore.index_lower_bound(reports)
        shape = ore.splitting_shape(reports)
        return _GeneralResult(reports, bound, shape)

    def failures(self, unit: Unit, output):
        problems = checks.general_failures(unit.args, output.reports, output.bound, output.shape)
        return unit.fields if problems else 0, problems


class _GeneralResult:
    """Engine results; str() is the canonical text that digests cover."""

    def __init__(self, reports, bound, shape):
        self.reports, self.bound, self.shape = reports, bound, shape

    def __str__(self):
        parts = [
            (tuple(r.phi), r.multiplicity, tuple(tuple(v) for v in r.polygon.vertices), r.index, r.regular)
            for r in self.reports
        ]
        return repr((parts, self.bound.value, self.bound.exact, str(self.shape)))


WORKLOADS = {w.name: w for w in (AnalyzeLadder, ScanDeg7, EngineGeneral, ScanDeg256Jobs2)}
