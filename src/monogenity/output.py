"""The analyze output layer: the certificate payload, its JSON and human
text, and the --verify cross-check against the oracles.

Only `mono analyze` loads this module, so a scan or a render compiles none
of it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from . import __version__
from .classify import MonogenityVerdict, PrimeAnalysis
from .polygon import PhiReport, principal_part
from .zpoly import PureShiftExpansion, pure_polynomial, to_string

_CHUNK = 256  # valued points a write at most: about 10 KB of JSON


def _report_payload(report: PhiReport) -> dict:
    sides = []
    for analysis in report.sides:
        sides.append(
            {
                "slope": analysis.side.slope_text(),
                "length": analysis.side.length,
                "height": analysis.side.height,
                "degree": analysis.side.degree,
                "residual": analysis.residual_text(),
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
    p, m = params.p, params.m
    witness = cert.analysis_at(p).comindex_witness()
    comindex = None if witness is None else {"prime": p, "residue_degree": witness}
    return {
        "artifact_version": __version__,
        "input": {"p": p, "r": params.r, "m": m},
        "verdict": {
            "status": verdict.status.value,
            "provenance": verdict.provenance.value,
        },
        "certificate": {
            "polynomial": params.polynomial_text(),
            "nu_pivot": cert.nu_pivot,
            "nu_fermat": cert.nu_pivot if m % p else None,  # m**p - m = m * (m**(p-1) - 1)
            "negative_m": m < 0,
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


def _points_text(valued, piece: str, sep: str, append) -> None:
    """Hand a report's valued points to append as text, at most _CHUNK
    points a call: piece has %d for i and {} for v, sep joins the pieces.

    For a PureShiftExpansion, with step = p**L the largest power of p up to
    _CHUNK (1 <= L <= r), v = r - v_p(j - a*step) at a*step < j < (a + 1)*step
    for every a: one bytes template of that block (bytes % finds each field
    with memchr) is filled with each run of abscissas, and j = a*step has
    v = r - L - v_p(a).  At L = 1 a block is p - 1 points at v = r, filled
    _CHUNK at a time.  Other points are columns, written whole."""
    piece, sep = piece.encode("ascii"), sep.encode("ascii")

    def fill(v: int) -> bytes:
        return piece.replace(b"{}", b"%d" % v)

    if not isinstance(valued, PureShiftExpansion):
        abscissas, valuations = valued
        append((sep.join(map(fill, valuations)) % tuple(abscissas)).decode("ascii"))
        return
    p, n, v = valued.params.p, valued.params.degree, valued.params.r
    unit, step = sep + fill(v), p
    block = unit * min(p - 1, _CHUNK)  # each piece led by its sep
    while step < n and step * p <= _CHUNK:
        v, step = v - 1, step * p
        block = (sep + fill(v)).join([block] * p)
    append((fill(valued.nu0) % 0).decode("ascii"))
    for start in range(0, n, step):
        for i in range(start + 1, start + step, _CHUNK):  # more than once only past p = 257
            count = min(start + step - i, _CHUNK)
            template = block[: count * len(unit)] if step == p else block
            append((template % tuple(range(i, i + count))).decode("ascii"))
        w, a = v - 1, start // step + 1
        while a % p == 0:
            w, a = w - 1, a // p
        append(((sep + fill(w)) % (start + step)).decode("ascii"))


def _emit(value, indent: str, append) -> None:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, handed to
    append piece by piece in one walk (with indent, json.dumps runs its
    pure-Python encoder, a generator per container).  A report's valued
    points, a tuple, are a list of [i, v] pairs that _points_text writes in
    chunks, so no piece grows with n; a report always holds its unit point,
    so no such list is empty.  indent is the newline and spaces that start a
    line at value's depth."""
    if value is None or value is True or value is False:
        append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif isinstance(value, tuple):  # a report's valued points
        pair = indent + "  "
        append("[")
        _points_text(value, f"{pair}[{pair}  %d,{pair}  {{}}{pair}]", ",", append)
        append(indent + "]")
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
    from .ore import dedekind_divides_index

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
            check(f"lattice index ({tag})", rep.index, rep.phi_degree * index)
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
    line; _points_text writes each report's points line in chunks."""
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
            out.write("  points: ")
            _points_text(factor["points"], "(%d,{})", " ", out.write)
            vertices = " ".join(f"({i},{v})" for i, v in factor["vertices"])
            print(f"\n  vertices: {vertices}", file=out)
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
