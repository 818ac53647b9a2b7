"""Command-line front end: analyze one field, scan ranges of m with
persistent output, or render a polygon.  Analyze's certificate text and
--verify checks are in monogenity.output, which only analyze loads.

Option precedence is flags > environment (MONO_ prefix) > optional JSON
config file (path from --config or MONO_CONFIG) > default, resolved and
checked once, before the command runs.  Exit codes: 0 ok,
2 validation error, 3 I/O error, 4 internal invariant violation,
5 oracle disagreement under --verify.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import __version__, zpoly
from .classify import Status, classify
from .errors import InvariantError, NotSquarefree, OracleDisagreement, ValidationError
from .zpoly import PureFieldParams

# Analyze output lists all p**r + 1 valued points and render draws every
# lattice column, so both grow linearly with the degree; the cap keeps one
# command's output to a size a desk run can read.
_MAX_DEGREE = 4096

_SCAN_FIELDS = (
    "m",
    "p",
    "r",
    "status",
    "provenance",
    "nu",
    "index_bound",
    "index_exact",
    "P1",
    "N1",
    "shape",
    "skipped_reason",
)

# Rows a scan needs per pool worker; see cmd_scan.
_ROWS_PER_WORKER = 1024

# The most rows one scan may have; see cmd_scan.
_MAX_SCAN_ROWS = 500_000


def _check_degree(p: int, r: int) -> None:
    """The degree cap, which every command checks before p and r."""
    # p >= 2, so r > 12 is past the cap: building 3**(10**7) alone takes seconds
    if r >= 1 and p >= 2 and (r > 12 or p**r > _MAX_DEGREE):
        degree = f"{p}**{r}"
        if (p.bit_length() - 1) * r <= 20_000:  # str() refuses past 4300 digits anyway
            with contextlib.suppress(ValueError):
                degree = str(p**r)
        raise ValidationError(f"degree p**r = {degree} exceeds the CLI cap of {_MAX_DEGREE}")


def _params(p: int, r: int, m: int) -> PureFieldParams:
    _check_degree(p, r)
    return PureFieldParams(p=p, r=r, m=m)  # checks p, then r, then m


def cmd_analyze(args) -> int:
    from . import output  # only analyze writes a certificate

    params = _params(args.p, args.r, args.m)
    verdict = classify(params)
    oracle_reports = output._oracle_reports(verdict) if args.verify else None
    payload = output._analyze_payload(verdict, oracle_reports)
    if args.format == "json":
        output._emit(payload, "\n", sys.stdout.write)
        sys.stdout.write("\n")
    else:
        output._write_human(payload, sys.stdout)
    bad = [c for c in oracle_reports or () if not c["agree"]]
    if bad:
        raise OracleDisagreement(
            *(f"{c['name']}: engine {c['engine']} vs oracle {c['oracle']}" for c in bad)
        )
    return 0


def _scan_row(task) -> dict:
    p, r, m = task
    base = {"m": m, "p": p, "r": r}
    if m in (-1, 0, 1):
        return {**base, "skipped_reason": "excluded_m"}
    try:
        params = PureFieldParams(p=p, r=r, m=m)
    except NotSquarefree:  # cmd_scan has checked p and r; an m it cannot factor fails the scan
        return {**base, "skipped_reason": "not_squarefree"}
    verdict = classify(params)
    cert = verdict.certificate
    analysis = cert.analysis_at(p)
    return {
        **base,
        "status": verdict.status.value,
        "provenance": verdict.provenance.value,
        "nu": cert.nu_pivot,
        "index_bound": analysis.index.value,
        "index_exact": analysis.index.exact,
        "P1": analysis.shape.count_residue_degree(1),
        "N1": p,
        "shape": str(analysis.shape),
        "skipped_reason": None,
    }


def cmd_scan(args) -> int:
    """Classify every m in [m_from, m_to] (of one residue class, if given) and
    write one row per m, in m-order.

    --jobs caps the number of pool workers.  The scan starts at most one
    worker per _ROWS_PER_WORKER rows and one per CPU it may run on, and
    runs in process when that allows fewer than two; the same bytes come
    out either way.  The pool forks all its workers at its first task, so
    without the CPU cap --jobs 5000 would fork 5000 processes.  Starting
    and tearing down a pool costs as much as several hundred rows.  On 2
    CPUs, where a row takes 55-90 us at p=2 r=8 (m from 50000) and at
    p=7 r=1 (m from 10500), two workers ran at x0.75-0.82 the speed of
    one process on 1024 rows, x0.91-1.12 on 1536, x1.03-1.23 on 2048,
    x1.09-1.32 on 3072 and x1.22-1.46 on 4096 (medians over 9 pairs per
    size and run, two runs, both (p, r), every 256 rows from 1024 to
    4096, each scan timed in a fresh process after a warm-up scan).  So
    K = 1024: from 2K rows on, the pool ran as fast as one process or
    faster.  K scales with the cost of a row, so a change that makes rows
    much cheaper (a per-class memo) must measure it again.

    The rows are counted first, and a scan of more than _MAX_SCAN_ROWS =
    500,000 rows is refused (exit 2).  The --out file is opened next, so a
    bad path fails (exit 3) before any row is built.  Each row is written
    and counted for the summary as it arrives, and in process no other row
    is held: 500,000 rows at p=7 r=1 from m = 10000 took 43 s at 13.6 MiB
    peak RSS, so the cap keeps a scan under a minute.  A pool holds more:
    Executor.map submits every chunk of count / (4 * workers) tasks at once
    (Python 3.10-3.13), and a chunk's rows arrive as one list; the same
    scan at --jobs 2 took 25 s at 125.7 MiB.
    """
    if args.m_from > args.m_to:
        raise ValidationError("--m-from must not exceed --m-to")
    _check_degree(args.p, args.r)
    zpoly.check_prime_power(args.p, args.r)
    modulus = args.modulus
    residue = args.residue
    if (modulus is None) != (residue is None):
        raise ValidationError("--residue and --modulus must be given together")
    if modulus is not None and modulus < 1:
        raise ValidationError("--modulus must be positive")

    step = modulus or 1
    first = args.m_from + (0 if modulus is None else (residue - args.m_from) % modulus)
    count = max(0, (args.m_to - first) // step + 1)
    if count > _MAX_SCAN_ROWS:
        raise ValidationError(
            f"the scan has {count} values of m, past the cap of {_MAX_SCAN_ROWS} rows"
        )
    tasks = ((args.p, args.r, m) for m in range(first, args.m_to + 1, step))
    workers = min(args.jobs, count // _ROWS_PER_WORKER, _usable_cpus())
    counts = dict.fromkeys([*(status.value for status in Status), None], 0)
    with _replacing(args.out) as handle, contextlib.ExitStack() as stack:
        if workers <= 1:
            rows = map(_scan_row, tasks)
        else:
            # imported only when a pool starts: with logging it adds ~0.5 MiB RSS
            import concurrent.futures

            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(workers))
            rows = pool.map(_scan_row, tasks, chunksize=max(1, count // (workers * 4)))
        if args.format == "csv":
            import csv  # only a CSV scan writes it

            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(_SCAN_FIELDS)
        for row in rows:
            counts[row.get("status")] += 1  # a skipped row has no status
            if args.format == "jsonl":
                full = {key: row.get(key) for key in _SCAN_FIELDS}
                handle.write(json.dumps(full, sort_keys=True) + "\n")
            else:  # the writer writes None as ""
                writer.writerow(
                    ("true" if v else "false") if isinstance(v, bool) else v
                    for v in map(row.get, _SCAN_FIELDS)
                )

    print(f"scanned {count} values of m in [{args.m_from}, {args.m_to}]")
    for status in Status:
        print(f"{status.value}: {counts[status.value]}")
    print(f"skipped: {counts[None]}")
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot say which."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def cmd_render(args) -> int:
    from . import render

    params = _params(args.p, args.r, args.m)
    fig = render.figure_for(params, args.at)
    with _replacing(args.out) as handle:
        svg = args.format == "svg"
        handle.write(render.render_svg(fig, args.linear_x) if svg else render.render_ascii(fig))
    print(f"wrote {args.out}")
    return 0


@contextlib.contextmanager
def _replacing(path: str):
    """A new file that replaces path as the block ends, or is removed if it fails."""
    partial = f"{path}.{os.getpid()}.partial"
    try:
        try:
            handle = open(partial, "x", encoding="utf-8", newline="")
        except FileExistsError:  # left by a killed run that had this pid
            os.unlink(partial)  # not open(partial, "w"), which follows a symlink
            handle = open(partial, "x", encoding="utf-8", newline="")
        try:
            with handle:
                yield handle
            os.replace(partial, path)
        except BaseException:
            os.unlink(partial)
            raise
    except OSError as exc:  # open and replace name the partial file, whose name holds the pid
        if exc.filename != partial:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None


def _load_config(path: "str | None") -> dict:
    path = path or os.environ.get("MONO_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.loads(handle.read())
        # JSONDecodeError, UnicodeDecodeError and int()'s digit limit are
        # ValueErrors; arrays nested past the recursion limit raise RecursionError
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return config


_FORMATS = {"analyze": ("human", "json"), "scan": ("csv", "jsonl"), "render": ("ascii", "svg")}


def _format(value, source: str, command: str) -> str:
    if value not in _FORMATS[command]:
        raise ValidationError(f"unknown {command} format {value!r}")
    return value


def _boolean(value, source: str, command: str) -> bool:
    """A flag (only sets True), a JSON boolean, or in MONO_<NAME> 1, true, yes, on or
    0, false, no, off in any case, spaces around ignored, empty for false."""
    if isinstance(value, bool):
        return value
    if source.startswith("MONO_"):
        word = value.strip().lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("", "0", "false", "no", "off"):
            return False
    raise ValidationError(f"{source} must be a boolean, got {value!r}")


def _jobs(value, source: str, command: str) -> int:
    """At least 1: an int from --jobs, digits in MONO_JOBS or a JSON integer, not a bool."""
    if source == "MONO_JOBS" and value.isascii() and value.isdigit():
        with contextlib.suppress(ValueError):  # int() refuses past 4300 digits
            value = int(value)
    if type(value) is not int or value < 1:
        raise ValidationError(f"{source} must be an integer of at least 1, got {value!r}")
    return value


# each command's options, in the order they are resolved and checked: (name, default, check)
_OPTIONS = {
    "analyze": (("format", "human", _format), ("verify", False, _boolean)),
    "scan": (("format", "csv", _format), ("jobs", 1, _jobs)),
    "render": (("format", "ascii", _format), ("linear_x", False, _boolean)),
}


def _resolve_options(args) -> None:
    """Set each option the flag left unset from MONO_<NAME>, else the config (loaded
    once, here), else the default, and check every value, whatever its source."""
    config = _load_config(args.config)
    for name, default, check in _OPTIONS[args.command]:
        env = f"MONO_{name.upper()}"
        if getattr(args, name) is not None:
            source, value = "--" + name.replace("_", "-"), getattr(args, name)
        elif env in os.environ:
            source, value = env, os.environ[env]
        elif name in config:
            source, value = f"config key {name!r}", config[name]
        else:
            source, value = "the default", default
        setattr(args, name, check(value, source, args.command))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mono",
        description="Monogenity of the pure fields defined by x^(p^r) - m.",
    )
    parser.add_argument("--version", action="version", version=f"mono {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify one field")
    analyze.add_argument("--p", type=int, required=True)
    analyze.add_argument("--r", type=int, required=True)
    analyze.add_argument("--m", type=int, required=True)
    analyze.add_argument("--format", choices=_FORMATS["analyze"])
    analyze.add_argument("--verify", action="store_const", const=True, default=None,
                         help="cross-check against brute-force oracles")
    analyze.add_argument("--config")
    analyze.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan", help="classify a range of m and persist rows")
    scan.add_argument("--p", type=int, required=True)
    scan.add_argument("--r", type=int, required=True)
    scan.add_argument("--m-from", type=int, required=True)
    scan.add_argument("--m-to", type=int, required=True)
    scan.add_argument("--residue", type=int)
    scan.add_argument("--modulus", type=int)
    scan.add_argument("--out", required=True)
    scan.add_argument("--format", choices=_FORMATS["scan"])
    scan.add_argument("--jobs", type=int)
    scan.add_argument("--config")
    scan.set_defaults(func=cmd_scan)

    rend = sub.add_parser("render", help="draw the polygon at one prime")
    rend.add_argument("--p", type=int, required=True)
    rend.add_argument("--r", type=int, required=True)
    rend.add_argument("--m", type=int, required=True)
    rend.add_argument("--at", type=int, required=True, help="prime to localize at")
    rend.add_argument("--format", choices=_FORMATS["render"])
    rend.add_argument("--out", required=True)
    rend.add_argument("--linear-x", action="store_const", const=True, default=None)
    rend.add_argument("--config")
    rend.set_defaults(func=cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # build_parser() takes 0.55-0.59 ms, where a warm analyze at (2, 2, 17)
    # takes 0.17-0.22 ms with its parse (timeit minima, Python 3.11, 2-vCPU
    # Xeon); parse_args gives each call a fresh namespace

    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _resolve_options(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except OracleDisagreement as exc:
        for disagreement in exc.args:  # one line per check that failed
            print(f"oracle disagreement: {disagreement}", file=sys.stderr)
        return 5


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
