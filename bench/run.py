"""Benchmark runner for monogenity.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; a
readable table goes to standard error, and the full result (stamps,
digests of every output, failure messages) to .bench_out/ at the root
of the checkout.  The package is imported from src/ next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
# Between calls, every PROBE_EVERY_S, a fixed loop times the host's speed;
# the *_ref metrics scale each call to a host on which it takes REF_PROBE_MS,
# by the mean of the probes just before and just after the call.
PROBE_EVERY_S = 0.1
REF_PROBE_MS = 2.0


def load_engine():
    """Import monogenity afresh from SRC; one set-up of the program."""
    for name in [n for n in sys.modules if n == "monogenity" or n.startswith("monogenity.")]:
        del sys.modules[name]
    importlib.import_module("monogenity.cli")
    origin = Path(sys.modules["monogenity"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"monogenity was imported from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# the timed loop


def probe_ms() -> float:
    """One run of a fixed pure-Python loop, about 2 ms on a 2 GHz Xeon."""
    t0 = time.perf_counter()
    sum(i * i % 7 for i in range(20000))
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Outcome:
    units: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # (key, ms, ms scaled to the reference host)
    probe_after: list = field(default_factory=list)  # index of the probe before each call
    probes: list = field(default_factory=list)  # probe_ms() readings
    wall: float = 0.0  # seconds, probes and bookkeeping included
    busy: float = 0.0  # seconds inside calls
    fields: int = 0


class Outputs:
    """Every output by input key: the first is checked, later ones must match it."""

    def __init__(self):
        self.first: dict = {}  # key -> [digest, unit, output, occurrences]
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, fields: int, message: str) -> None:
        self.failed += fields
        self.messages.append(message)

    def record(self, unit, output) -> None:
        digest = hashlib.sha256(str(output).encode()).hexdigest()
        entry = self.first.get(unit.key)
        if entry is None:
            self.first[unit.key] = [digest, unit, output, 1]
        elif entry[0] != digest:
            self.fail(unit.fields, f"{unit.key}: output differs from an earlier call ({digest})")
        else:
            entry[3] += 1

    def check(self, workload) -> None:
        for entry in self.first.values():
            _, unit, output, count = entry
            failed, problems = workload.failures(unit, output)
            if failed:
                self.fail(failed * count, "; ".join(problems[:3]))
            entry[2] = None

    def digests(self) -> dict[str, str]:
        return {key: entry[0] for key, entry in sorted(self.first.items())}


def run_units(workload, passes, seconds, outputs, jobs=None, rec=None) -> Outcome:
    """Call unit after unit, one caller; stop after the pass that ends past `seconds`."""
    out = Outcome()
    out.probes.append(probe_ms())
    start = last_probe = time.perf_counter()
    for batch in passes:
        for unit in batch:
            if rec is not None:
                rec.field = f"u{len(out.units)}"
            t0 = time.perf_counter()
            try:
                output = workload.call(unit, jobs)
            except Exception:
                outputs.fail(unit.fields, f"{unit.key}: raised\n{traceback.format_exc(limit=4)}")
                output = None
            t1 = time.perf_counter()
            ms = (t1 - t0) * 1e3
            out.units.append(unit)
            out.latencies.append((unit.key, ms))
            out.probe_after.append(len(out.probes) - 1)
            out.busy += t1 - t0
            out.fields += unit.fields
            if output is not None:
                outputs.record(unit, output)
                if rec is not None and isinstance(output, str):
                    rec.add("cli.bytes_out", len(output.encode()))
            if t1 - last_probe >= PROBE_EVERY_S:
                out.probes.append(probe_ms())
                last_probe = time.perf_counter()
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    out.wall = time.perf_counter() - start
    out.probes.append(probe_ms())
    out.latencies = [
        (key, ms, ms * 2 * REF_PROBE_MS / (out.probes[i] + out.probes[i + 1]))
        for (key, ms), i in zip(out.latencies, out.probe_after)
    ]
    return out


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus that of the largest pool worker if any."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024  # ru_maxrss is in KiB on Linux


def input_medians(latencies) -> dict[str, float]:
    """Each input's median latency over its repeated calls."""
    by_key: dict[str, list] = {}
    for key, ms, _ in latencies:
        by_key.setdefault(key, []).append(ms)
    return {key: statistics.median(values) for key, values in by_key.items()}


def n4096_ms(latencies) -> float:
    """Median over the two n = 4096 anchors of each anchor's median latency."""
    from workloads import N4096, anchor_unit

    medians = input_medians(latencies)
    return statistics.median(medians[anchor_unit(a).key] for a in N4096)


def end_to_end(workload, setup_s, outputs, seconds) -> tuple[dict, dict, dict]:
    """The gated metrics, and those reported but not gated."""
    from workloads import N4096

    run = run_units(workload, workload.passes(), seconds, outputs)
    p95, beyond = nearest_rank([ms for _, ms, _ in run.latencies], 0.95)
    p95_ref, _ = nearest_rank([ref for _, _, ref in run.latencies], 0.95)
    # The gate uses times scaled by the host probes taken between calls
    # (setup_s too): on a shared virtual machine the host's speed
    # drifts by tens of percent within minutes, which moves raw times of
    # the same code more than any bound a regression gate could use.
    metrics = {
        "setup_s": setup_s,
        "fields_per_ref_s": run.fields * 1e3 / sum(ref for _, _, ref in run.latencies),
        "latency_p95_ref_ms": p95_ref,
        "peak_rss_mb": peak_rss_mb(workload.workers),
    }
    reported = {
        "fields_per_s": (run.fields / run.busy, "1/s"),
        "latency_p50_ms": (statistics.median(input_medians(run.latencies).values()), "ms"),
        "latency_p95_ms": (p95, "ms"),
        "host_probe_ms": (statistics.median(run.probes), "ms"),
    }
    if any(unit.args in N4096 for unit in run.units):
        reported["latency_n4096_ms"] = (n4096_ms(run.latencies), "ms")
    info = {
        "fields": run.fields,
        "calls": len(run.latencies),
        "samples_beyond_p95": beyond,
        "wall_s": run.wall,
    }
    return metrics, reported, info


def per_layer(workload, outputs, seconds, names, spans_path) -> tuple[dict, dict, dict]:
    """Untraced run, the same units again with the other --jobs (scans), then traced.

    A scan is traced at --jobs 1, since pool workers' spans would not come
    back to this process; the pool workload's layers are thus those of
    its rows run serially on the same windows.
    """
    from spans import Recorder
    from workloads import Scan

    base = run_units(workload, workload.passes(), seconds / 2, outputs)
    plan = [base.units]
    untraced, fields, speedup = base, base.fields, 0.0
    if isinstance(workload, Scan):
        other_jobs = 2 if workload.workers == 1 else 1
        other = run_units(workload, plan, None, outputs, jobs=other_jobs)
        walls = {workload.workers: base.wall, other_jobs: other.wall}
        speedup = walls[1] / walls[2]
        untraced = base if workload.workers == 1 else other
        fields += other.fields
    with Recorder() as rec:
        traced = run_units(workload, plan, None, outputs, jobs=1 if speedup else None, rec=rec)
    metrics = rec.medians(n for n in names if n not in ("cli.pool_speedup", "trace.overhead_ratio"))
    metrics["cli.pool_speedup"] = speedup
    metrics["trace.overhead_ratio"] = traced.wall / untraced.wall
    rec.write(spans_path)
    info = {
        "fields": fields + traced.fields,
        "spans": len(rec.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_wrap_targets": sorted(rec.missing),
    }
    return metrics, {}, info


# ---------------------------------------------------------------------------
# stamps


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    top, sha = proc.stdout.split()
    return sha if Path(top).resolve() == ROOT else None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = SRC / "monogenity"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamps() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1min_start": os.getloadavg()[0],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------


def run_one(args, spec) -> dict:
    from workloads import WORKLOADS

    stamp = stamps()
    for name in [n for n in os.environ if n.startswith("MONO_")]:
        del os.environ[name]  # flags > env > config: keep the runs on flags alone
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)

    setup, probes = [], []
    for _ in range(SETUP_REPS):
        probes.append(probe_ms())
        t0 = time.perf_counter()
        load_engine()
        workload.warmup()
        setup.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup)

    outputs = Outputs()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        table = spec["per_layer"]
        values, extra, info = per_layer(
            workload, outputs, args.seconds, [m["name"] for m in table], OUT / f"spans-{stem}.json"
        )
    else:
        table = spec["end_to_end"]
        values, extra, info = end_to_end(
            workload, setup_s * REF_PROBE_MS / statistics.median(probes), outputs, args.seconds
        )
        extra["setup_raw_s"] = (setup_s, "s")
    outputs.check(workload)
    stamp["loadavg_1min_end"] = os.getloadavg()[0]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    attempted = info["fields"]
    failed = min(outputs.failed, attempted)
    # reported, not gated: see end_to_end; failed_ratio is 0 when all is well
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()}
    reported["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    detail = {
        "workload": {
            "name": workload.name,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
            "loop": workload.loop,
            "callers": 1,
            "workers": workload.workers,
            "seed": workload.seed_meaning,
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamps": stamp,
        "metrics": metrics,
        "reported": reported,
        "setup_samples_s": setup,
        "run": info,
        "digests": outputs.digests(),
        "failures": outputs.messages[:20],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print_table(workload.name, metrics, reported, attempted)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(name, metrics, reported, attempted) -> None:
    print(f"{name} ({attempted} fields attempted):", file=sys.stderr)
    for metric, entry in {**metrics, **reported}.items():
        print(f"  {metric:28s} {entry['value']:14.4f} {entry['unit']}", file=sys.stderr)


def run_all(args, spec) -> dict:
    """Each workload in its own process, one after the other."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {entry['name']} exited with {proc.returncode}")
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{entry['name']}.{metric}"] = value
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monogenity" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'monogenity'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
