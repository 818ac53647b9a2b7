"""Command-line front end: analyze one field, scan ranges of m with
persistent output, or render a polygon.

Option precedence is flags > environment (MONO_ prefix) > optional JSON
config file (path from --config or MONO_CONFIG).  Exit codes: 0 ok,
2 validation error, 3 I/O error, 4 internal invariant violation,
5 oracle disagreement under --verify.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys

from . import __version__, oracle, render, zpoly
from .classify import MonogenityVerdict, PrimeAnalysis, classify, dedekind_divides_index
from .errors import InvariantError, OracleDisagreement, ValidationError
from .intarith import is_prime, is_squarefree
from .ore import NOT_REGULAR, PhiReport
from .polygon import principal_part
from .zpoly import PureFieldParams, pure_polynomial, to_string

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


def _check_degree(p: int, r: int) -> None:
    if r >= 1 and p >= 2 and p**r > _MAX_DEGREE:
        raise ValidationError(
            f"degree p**r = {p**r} exceeds the CLI cap of {_MAX_DEGREE}"
        )


def _params(p: int, r: int, m: int) -> PureFieldParams:
    _check_degree(p, r)
    return PureFieldParams(p=p, r=r, m=m)


def _slope_string(side) -> str:
    return f"-{side.h}/{side.e}" if side.h >= 0 else f"{-side.h}/{side.e}"


def _report_payload(report: PhiReport) -> dict:
    sides = []
    for analysis in report.sides:
        sides.append(
            {
                "slope": _slope_string(analysis.side),
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
        "points": [[pt.i, pt.v] for pt in report.points],
        "vertices": [[v.i, v.v] for v in report.polygon.vertices],
        "sides": sides,
        "index": report.index,
        "regular": report.regular,
    }


def _analysis_payload(analysis: PrimeAnalysis) -> dict:
    shape = (
        "NOT_REGULAR"
        if analysis.shape is NOT_REGULAR
        else [[e, f] for e, f in analysis.shape.pairs]
    )
    return {
        "factors": [_report_payload(rep) for rep in analysis.reports],
        "index_bound": {"value": analysis.index.value, "exact": analysis.index.exact},
        "shape": shape,
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
    payload = {
        "artifact_version": __version__,
        "input": {"p": params.p, "r": params.r, "m": params.m},
        "verdict": {
            "status": verdict.status.value,
            "provenance": verdict.provenance.value,
        },
        "certificate": {
            "polynomial": to_string(pure_polynomial(params)),
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
    return payload


def _oracle_reports(verdict: MonogenityVerdict) -> list[dict]:
    cert = verdict.certificate
    params = cert.params
    f = pure_polynomial(params)
    reports: list[oracle.OracleReport] = []
    for analysis in cert.analyses:
        for rep in analysis.reports:
            tag = f"prime {analysis.prime}, base {to_string(rep.phi)}"
            reports.append(
                oracle.OracleReport(
                    name=f"hull vertices ({tag})",
                    engine=rep.polygon.vertices,
                    oracle=oracle.brute_hull(rep.points).vertices,
                )
            )
            reports.append(
                oracle.OracleReport(
                    name=f"lattice index ({tag})",
                    engine=rep.index,
                    oracle=zpoly.degree(rep.phi)
                    * oracle.brute_phi_index(principal_part(rep.polygon)),
                )
            )
    if params.degree <= 64:
        for q, engine_value in cert.discriminant_valuations:
            reports.append(
                oracle.OracleReport(
                    name=f"discriminant valuation at {q}",
                    engine=engine_value,
                    oracle=oracle.resultant_discriminant_valuation(f, q),
                )
            )
    reports.append(
        oracle.OracleReport(
            name=f"Dedekind test at {params.p}",
            engine=cert.nu_pivot >= 2,
            oracle=dedekind_divides_index(f, params.p),
        )
    )
    for q, _ in cert.discriminant_valuations:
        if params.m % q == 0:
            reports.append(
                oracle.OracleReport(
                    name=f"Dedekind test at {q} (divides m)",
                    engine=False,
                    oracle=dedekind_divides_index(f, q),
                )
            )
    return [
        {"name": r.name, "engine": _plain(r.engine), "oracle": _plain(r.oracle), "agree": r.agree}
        for r in reports
    ]


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _human_analyze(payload: dict) -> str:
    out = io.StringIO()
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
            points = " ".join(f"({i},{v})" for i, v in factor["points"])
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
        bound = analysis["index_bound"]
        exact = "exact" if bound["exact"] else "lower bound"
        print(f"  index bound: {bound['value']} ({exact})", file=out)
        if analysis["shape"] == "NOT_REGULAR":
            print("  splitting shape: NOT_REGULAR", file=out)
        else:
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
    return out.getvalue()


def cmd_analyze(args) -> int:
    config = _load_config(args.config)
    fmt = _resolve("format", args.format, config, "human")
    if fmt not in ("human", "json"):
        raise ValidationError(f"unknown analyze format {fmt!r}")
    verify = _resolve_bool("verify", args.verify, config, False)
    params = _params(args.p, args.r, args.m)
    verdict = classify(params)
    oracle_reports = _oracle_reports(verdict) if verify else None
    payload = _analyze_payload(verdict, oracle_reports)
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(_human_analyze(payload))
    if oracle_reports is not None:
        bad = [c for c in oracle_reports if not c["agree"]]
        if bad:
            for check in bad:
                print(
                    f"oracle disagreement: {check['name']}: engine {check['engine']} "
                    f"vs oracle {check['oracle']}",
                    file=sys.stderr,
                )
            return 5
    return 0


def _scan_row(task) -> dict:
    p, r, m = task
    base = {"m": m, "p": p, "r": r}
    if m in (-1, 0, 1):
        return {**base, "skipped_reason": "excluded_m"}
    if not is_squarefree(m):
        return {**base, "skipped_reason": "not_squarefree"}
    verdict = classify(PureFieldParams(p=p, r=r, m=m))
    cert = verdict.certificate
    analysis = cert.analysis_at(p)
    if analysis.shape is NOT_REGULAR:
        shape = "NOT_REGULAR"
        p1 = None
    else:
        shape = str(analysis.shape)
        p1 = analysis.shape.count_residue_degree(1)
    return {
        **base,
        "status": verdict.status.value,
        "provenance": verdict.provenance.value,
        "nu": cert.nu_pivot,
        "index_bound": analysis.index.value,
        "index_exact": analysis.index.exact,
        "P1": p1,
        "N1": p,
        "shape": shape,
        "skipped_reason": None,
    }


def cmd_scan(args) -> int:
    config = _load_config(args.config)
    fmt = _resolve("format", args.format, config, "csv")
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown scan format {fmt!r}")
    jobs = int(_resolve("jobs", args.jobs, config, 1))
    if jobs < 1:
        raise ValidationError("--jobs must be at least 1")
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
    if jobs == 1:
        rows = [_scan_row(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(tasks) // (jobs * 4))
            rows = list(pool.map(_scan_row, tasks, chunksize=chunk))

    text = _format_rows(rows, fmt)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)

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


def _format_rows(rows, fmt: str) -> str:
    if fmt == "jsonl":
        lines = []
        for row in rows:
            full = {key: row.get(key) for key in _SCAN_FIELDS}
            lines.append(json.dumps(full, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")
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
    config = _load_config(args.config)
    fmt = _resolve("format", args.format, config, "ascii")
    if fmt not in ("ascii", "svg"):
        raise ValidationError(f"unknown render format {fmt!r}")
    linear = _resolve_bool("linear_x", args.linear_x, config, False)
    params = _params(args.p, args.r, args.m)
    fig = render.figure_for(params, args.at)
    text = render.render_ascii(fig) if fmt == "ascii" else render.render_svg(fig, linear_x=linear)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote {args.out}")
    return 0


def _load_config(path: "str | None") -> dict:
    path = path or os.environ.get("MONO_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
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


def _resolve_bool(name: str, flag_value, config: dict, default: bool) -> bool:
    value = _resolve(name, flag_value, config, default)
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return 5


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
