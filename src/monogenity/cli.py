"""Command-line front end: analyze one field, scan ranges of m with
persistent output, or render a polygon.

Option precedence is flags > environment (MONO_ prefix) > optional JSON
config file (path from --config or MONO_CONFIG).  Exit codes: 0 ok,
2 validation error, 3 I/O error, 4 internal invariant violation,
5 oracle disagreement under --verify.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__, zpoly
from .classify import MonogenityVerdict, PrimeAnalysis, classify
from .errors import InvariantError, OracleDisagreement, ValidationError
from .intarith import is_prime
from .ore import PhiReport
from .polygon import principal_part
from .zpoly import PureFieldParams, PureShiftExpansion, pure_polynomial, to_string

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
_ROWS_PER_WORKER = 256


def _check_degree(p: int, r: int) -> None:
    # p >= 2, so r > 12 is past the cap: building 3**(10**7) alone takes seconds
    if r >= 1 and p >= 2 and (r > 12 or p**r > _MAX_DEGREE):
        degree = f"{p}**{r}"
        if (p.bit_length() - 1) * r <= 20_000:  # str() refuses past 4300 digits anyway
            with contextlib.suppress(ValueError):
                degree = str(p**r)
        raise ValidationError(f"degree p**r = {degree} exceeds the CLI cap of {_MAX_DEGREE}")


def _params(p: int, r: int, m: int) -> PureFieldParams:
    _check_degree(p, r)
    return PureFieldParams(p=p, r=r, m=m)


def _report_payload(report: PhiReport) -> dict:
    sides = []
    for analysis in report.sides:
        sides.append(
            {
                "slope": analysis.side.slope_text(),
                "length": analysis.side.length,
                "height": analysis.side.height,
                "degree": analysis.side.degree,
                "residual": str(analysis.residual),
                "residual_factors": list(analysis.factor_strings()),
            }
        )
    return {
        "phi": to_string(report.phi),
        "multiplicity": report.multiplicity,
        "points": report.valued,  # written as [i, v] pairs by _points_text
        "vertices": [[v.i, v.v] for v in report.polygon.vertices],
        "sides": sides,
        "index": report.index,
        "regular": report.regular,
    }


def _analysis_payload(analysis: PrimeAnalysis) -> dict:
    return {
        "factors": [_report_payload(rep) for rep in analysis.reports],
        "index_bound": {"value": analysis.index.value, "exact": analysis.index.exact},
        "shape": [[e, f] for e, f in analysis.shape.pairs],
        "pn_table": [
            {"f": f, "P": p_count, "N": n_count}
            for f, p_count, n_count in analysis.pn_table
        ],
    }


def _analyze_payload(verdict: MonogenityVerdict, oracle_reports) -> dict:
    cert = verdict.certificate
    params = cert.params
    comindex = None
    if cert.comindex_prime is not None:
        comindex = {"prime": cert.comindex_prime, "residue_degree": cert.comindex_degree}
    return {
        "artifact_version": __version__,
        "input": {"p": params.p, "r": params.r, "m": params.m},
        "verdict": {
            "status": verdict.status.value,
            "provenance": verdict.provenance.value,
        },
        "certificate": {
            "polynomial": params.polynomial_text(),
            "nu_pivot": cert.nu_pivot,
            "nu_fermat": cert.nu_fermat,
            "negative_m": cert.negative_m,
            "discriminant_valuations": {
                str(q): v for q, v in cert.discriminant_valuations
            },
            "comindex": comindex,
            "primes": {
                str(a.prime): _analysis_payload(a) for a in cert.analyses
            },
        },
        "oracle": oracle_reports,
    }


def _points_text(valued, piece: str, sep: str) -> str:
    """A report's valued points as text, one piece each: piece has %d for i
    and {} for v, and the pieces fill one %-template with the abscissas.

    For a PureShiftExpansion no column of valuations is built: the
    template follows the block structure of valuations(), where the
    pieces at 0 < j < p**(k + 1) are p copies of those at 0 < j < p**k,
    joined by the piece for r - k.  Other points come as columns.

    The template is bytes, decoded once: str % reads its template one
    character at a time to find the next field, where bytes % finds it
    with memchr and copies the run before it whole, so at n = 4096 the
    fill takes about half the time.
    """
    piece, sep = piece.encode("ascii"), sep.encode("ascii")

    def fill(v: int) -> bytes:
        return piece.replace(b"{}", b"%d" % v)

    if isinstance(valued, PureShiftExpansion):
        p, r = valued.params.p, valued.params.r
        block = sep.join([fill(r)] * (p - 1))
        for k in range(1, r):
            block = (sep + fill(r - k) + sep).join([block] * p)
        template = sep.join((fill(valued.nu0), block, fill(0)))
        abscissas = range(p**r + 1)
    else:
        abscissas, valuations = valued
        template = sep.join(map(fill, valuations))
    return (template % tuple(abscissas)).decode("ascii")


def _emit(value, indent: str, append) -> None:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, handed to
    append piece by piece in one walk (with indent, json.dumps runs its
    pure-Python encoder, a generator per container).  A report's valued
    points, a tuple, are a list of [i, v] pairs that _points_text writes; a
    report always holds its unit point, so no such list is empty.  indent
    is the newline and spaces that start a line at value's depth."""
    if value is None or value is True or value is False:
        append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif isinstance(value, tuple):  # a report's valued points
        pair = indent + "  "
        append("[")
        append(_points_text(value, f"{pair}[{pair}  %d,{pair}  {{}}{pair}]", ","))
        append(indent + "]")  # apart, so the 10-20 bytes a point are not copied again
    elif isinstance(value, (dict, list)) and value:
        keyed = isinstance(value, dict)
        inner = indent + "  "
        sep = ("{" if keyed else "[") + inner
        for item in sorted(value) if keyed else value:
            append(sep + encode_basestring_ascii(item) + ": " if keyed else sep)
            _emit(value[item] if keyed else item, inner, append)
            sep = "," + inner
        append(indent + ("}" if keyed else "]"))
    elif isinstance(value, (dict, list)):
        append("{}" if isinstance(value, dict) else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _oracle_reports(verdict: MonogenityVerdict) -> list[dict]:
    from . import oracle  # only --verify runs the oracles
    from .general import dedekind_divides_index

    cert = verdict.certificate
    params = cert.params
    f = pure_polynomial(params)
    reports: list[dict] = []

    def check(name: str, engine, expected) -> None:
        agree = engine == expected
        reports.append(
            {"name": name, "engine": _plain(engine), "oracle": _plain(expected), "agree": agree}
        )

    for analysis in cert.analyses:
        for rep in analysis.reports:
            tag = f"prime {analysis.prime}, base {to_string(rep.phi)}"
            points = oracle.pure_valued_points(params.degree, params.m, analysis.prime, rep.phi)
            wrong = {i for i, _ in set(rep.points).symmetric_difference(points)}
            check(f"abscissas of wrong valued points ({tag})", sorted(wrong), [])
            hull = oracle.brute_hull(points)
            check(f"hull vertices ({tag})", rep.polygon.vertices, hull.vertices)
            index = oracle.brute_phi_index(principal_part(rep.polygon))
            check(f"lattice index ({tag})", rep.index, zpoly.degree(rep.phi) * index)
    if params.degree <= 64:
        for q, engine_value in cert.discriminant_valuations:
            expected = oracle.resultant_discriminant_valuation(f, q)
            check(f"discriminant valuation at {q}", engine_value, expected)
    check(f"Dedekind test at {params.p}", cert.nu_pivot >= 2, dedekind_divides_index(f, params.p))
    for q, _ in cert.discriminant_valuations:
        if params.m % q == 0:
            check(f"Dedekind test at {q} (divides m)", False, dedekind_divides_index(f, q))
    return reports


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _write_human(payload: dict, out) -> None:
    """Print the human text of an analyze payload to the stream out, line by
    line; each report's points line comes from _points_text."""
    cert = payload["certificate"]
    inp = payload["input"]
    print(f"{cert['polynomial']}  (p={inp['p']}, r={inp['r']}, m={inp['m']})", file=out)
    print(
        f"verdict: {payload['verdict']['status']}  [{payload['verdict']['provenance']}]",
        file=out,
    )
    print(f"nu = v_p(m^p - m) = {cert['nu_pivot']}", file=out)
    if cert["nu_fermat"] is not None:
        print(f"v_p(m^(p-1) - 1) = {cert['nu_fermat']}", file=out)
    if cert["negative_m"]:
        print("note: m < 0", file=out)
    if cert["comindex"]:
        print(
            f"common index divisor: {cert['comindex']['prime']} "
            f"(residue degree {cert['comindex']['residue_degree']})",
            file=out,
        )
    disc = ", ".join(f"v_{q} = {v}" for q, v in cert["discriminant_valuations"].items())
    print(f"discriminant valuations: {disc}", file=out)
    for prime, analysis in cert["primes"].items():
        for factor in analysis["factors"]:
            print(
                f"at prime {prime}: base {factor['phi']}, "
                f"multiplicity {factor['multiplicity']}",
                file=out,
            )
            points = _points_text(factor["points"], "(%d,{})", " ")
            vertices = " ".join(f"({i},{v})" for i, v in factor["vertices"])
            print(f"  points: {points}", file=out)
            print(f"  vertices: {vertices}", file=out)
            for k, side in enumerate(factor["sides"]):
                factors = ", ".join(side["residual_factors"])
                print(
                    f"  side {k + 1}: slope {side['slope']}, length {side['length']}, "
                    f"degree {side['degree']}, residual {side['residual']} = [{factors}]",
                    file=out,
                )
        print(f"  index bound: {analysis['index_bound']['value']} (exact)", file=out)
        shape = ",".join(f"{e}:{f}" for e, f in analysis["shape"])
        print(f"  splitting shape: {shape}", file=out)
        for entry in analysis["pn_table"]:
            print(
                f"  residue degree {entry['f']}: P = {entry['P']}, N = {entry['N']}",
                file=out,
            )
    if payload["oracle"] is not None:
        for check in payload["oracle"]:
            mark = "ok" if check["agree"] else "DISAGREE"
            print(f"verify: {check['name']}: {mark}", file=out)


def cmd_analyze(args) -> int:
    config = _load_config(args.config)
    fmt = _resolve("format", args.format, config, "human")
    if fmt not in ("human", "json"):
        raise ValidationError(f"unknown analyze format {fmt!r}")
    verify = _resolve_bool("verify", args.verify, config)
    params = _params(args.p, args.r, args.m)
    verdict = classify(params)
    oracle_reports = _oracle_reports(verdict) if verify else None
    payload = _analyze_payload(verdict, oracle_reports)
    if fmt == "json":
        _emit(payload, "\n", sys.stdout.write)
        sys.stdout.write("\n")
    else:
        _write_human(payload, sys.stdout)
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
    except ValidationError as exc:
        # cmd_scan has checked p and r; an m it cannot factor fails the scan
        if not str(exc).startswith("m must be squarefree"):
            raise
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
    and tearing down a pool costs as much as 100-300 rows.  On 2 CPUs,
    where a row takes about 0.08 ms at p=2 r=8 and 0.1 ms at p=7 r=1, two
    workers at p=2 r=8 ran at x0.55 the speed of one process on 128 rows,
    x0.92-0.94 on 256-384 rows, x0.99 and x1.11 on 512 rows (two sets of
    11 and 21 pairs) and x1.19-1.47 on 768-2048 rows; at p=7 r=1, x1.09
    on 256 rows and x1.11-1.16 on 512 (medians over 7-21 pairs per size).
    So K = 256 stays: 2K rows did not run slower in the pool.  K scales
    with the cost of a row, so a change that makes rows much cheaper (a
    per-class memo) must measure it again.
    """
    config = _load_config(args.config)
    fmt = _resolve("format", args.format, config, "csv")
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown scan format {fmt!r}")
    jobs = _resolve_jobs(args.jobs, config)
    if args.m_from > args.m_to:
        raise ValidationError("--m-from must not exceed --m-to")
    if not is_prime(args.p):
        raise ValidationError(f"p must be prime, got {args.p}")
    if args.r < 1:
        raise ValidationError(f"r must be a positive integer, got {args.r}")
    _check_degree(args.p, args.r)
    modulus = args.modulus
    residue = args.residue
    if (modulus is None) != (residue is None):
        raise ValidationError("--residue and --modulus must be given together")
    if modulus is not None and modulus < 1:
        raise ValidationError("--modulus must be positive")

    ms = [
        m
        for m in range(args.m_from, args.m_to + 1)
        if modulus is None or m % modulus == residue % modulus
    ]
    tasks = [(args.p, args.r, m) for m in ms]
    workers = min(jobs, len(tasks) // _ROWS_PER_WORKER, _usable_cpus())
    if workers <= 1:
        rows = [_scan_row(t) for t in tasks]
    else:
        # imported only when a pool starts: with logging it adds ~0.5 MiB RSS
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 4))
            rows = list(pool.map(_scan_row, tasks, chunksize=chunk))

    with _replacing(args.out) as handle:
        handle.write(_format_rows(rows, fmt))

    counts: dict[str, int] = {}
    skipped = 0
    for row in rows:
        if row.get("skipped_reason"):
            skipped += 1
        else:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
    print(f"scanned {len(rows)} values of m in [{args.m_from}, {args.m_to}]")
    for status in ("MONOGENIC_ZALPHA", "NOT_MONOGENIC", "UNDETERMINED"):
        print(f"{status}: {counts.get(status, 0)}")
    print(f"skipped: {skipped}")
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot say which."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def _format_rows(rows, fmt: str) -> str:
    if fmt == "jsonl":
        lines = []
        for row in rows:
            full = {key: row.get(key) for key in _SCAN_FIELDS}
            lines.append(json.dumps(full, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")
    import csv  # only a CSV scan writes it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_SCAN_FIELDS)
    for row in rows:
        record = []
        for key in _SCAN_FIELDS:
            value = row.get(key)
            if value is None:
                record.append("")
            elif isinstance(value, bool):
                record.append("true" if value else "false")
            else:
                record.append(str(value))
        writer.writerow(record)
    return out.getvalue()


def cmd_render(args) -> int:
    from . import render

    config = _load_config(args.config)
    fmt = _resolve("format", args.format, config, "ascii")
    if fmt not in ("ascii", "svg"):
        raise ValidationError(f"unknown render format {fmt!r}")
    linear = _resolve_bool("linear_x", args.linear_x, config)
    params = _params(args.p, args.r, args.m)
    fig = render.figure_for(params, args.at)
    with _replacing(args.out) as handle:
        handle.write(render.render_ascii(fig) if fmt == "ascii" else render.render_svg(fig, linear))
    print(f"wrote {args.out}")
    return 0


@contextlib.contextmanager
def _replacing(path: str):
    """A new file that replaces path as the block ends, or is removed if it fails."""
    partial = f"{path}.{os.getpid()}.partial"
    handle = open(partial, "x", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


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


def _resolve(name: str, flag_value, config: dict, default):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(f"MONO_{name.upper()}")
    if env is not None:
        return env
    if name in config:
        return config[name]
    return default


def _resolve_jobs(flag_value, config: dict) -> int:
    """jobs from --jobs (an int), MONO_JOBS (a decimal string) or the config
    (a JSON integer, not a boolean); anything else, or a value below 1, is
    rejected."""
    env = os.environ.get("MONO_JOBS")
    if flag_value is not None:
        source, value = "--jobs", flag_value
    elif env is not None:
        source, value = "MONO_JOBS", env
        if env.isascii() and env.isdigit():
            with contextlib.suppress(ValueError):  # int() refuses past 4300 digits
                value = int(env)
    elif "jobs" in config:
        source, value = "config key 'jobs'", config["jobs"]
    else:
        return 1
    if type(value) is not int or value < 1:
        raise ValidationError(f"{source} must be an integer of at least 1, got {value!r}")
    return value


def _resolve_bool(name: str, flag_value, config: dict) -> bool:
    """name from its flag (which only sets True), MONO_<NAME> (1, true, yes,
    on or 0, false, no, off in any case, spaces around ignored, empty for
    false) or the config (a JSON boolean); anything else is rejected."""
    if flag_value is not None:
        return flag_value
    env_name = f"MONO_{name.upper()}"
    env = os.environ.get(env_name)
    if env is not None:
        word = env.strip().lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("", "0", "false", "no", "off"):
            return False
        source, value = env_name, env
    elif name in config:
        value = config[name]
        if isinstance(value, bool):
            return value
        source = f"config key {name!r}"
    else:
        return False
    raise ValidationError(f"{source} must be a boolean, got {value!r}")


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
    analyze.add_argument("--format", choices=("human", "json"))
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
    scan.add_argument("--format", choices=("csv", "jsonl"))
    scan.add_argument("--jobs", type=int)
    scan.add_argument("--config")
    scan.set_defaults(func=cmd_scan)

    rend = sub.add_parser("render", help="draw the polygon at one prime")
    rend.add_argument("--p", type=int, required=True)
    rend.add_argument("--r", type=int, required=True)
    rend.add_argument("--m", type=int, required=True)
    rend.add_argument("--at", type=int, required=True, help="prime to localize at")
    rend.add_argument("--format", choices=("ascii", "svg"))
    rend.add_argument("--out", required=True)
    rend.add_argument("--linear-x", action="store_const", const=True, default=None)
    rend.add_argument("--config")
    rend.set_defaults(func=cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # about 1 ms, half of a small analyze; parse_args gives each call a fresh namespace
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
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
