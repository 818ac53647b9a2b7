import contextlib
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monogenity
from monogenity import cli
from monogenity.cli import main
from monogenity.errors import OracleDisagreement
from monogenity.intarith import is_squarefree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usable_cpus(monkeypatch, n):
    """Make the scan see n usable CPUs, with or without sched_getaffinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def load_schema():
    text = resources.files("monogenity").joinpath("schemas/analyze.schema.json").read_text()
    return json.loads(text)


class TestAnalyze:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "17")
        assert code == 0
        assert "NOT_MONOGENIC" in out
        assert "THEOREM_MONO2" in out

    def test_monogenic_case(self, capsys):
        code, out, _ = run(capsys, "analyze", "--p", "7", "--r", "1", "--m", "2")
        assert code == 0
        assert "MONOGENIC_ZALPHA" in out

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "80")
        assert code == 2
        assert "squarefree" in err

    def test_json_schema(self, capsys):
        from monogenity.classify import Provenance

        schema = load_schema()
        provenances = set()
        for argv in (
            ["analyze", "--p", "2", "--r", "2", "--m", "17", "--format", "json"],
            ["analyze", "--p", "2", "--r", "2", "--m", "3", "--format", "json"],
            ["analyze", "--p", "5", "--r", "1", "--m", "7", "--format", "json", "--verify"],
            ["analyze", "--p", "3", "--r", "3", "--m", "161", "--format", "json"],
            # one field per provenance; 15626 = 1 + 5**6 = 2 * 13 * 601 has nu = 6
            ["analyze", "--p", "7", "--r", "1", "--m", "2", "--format", "json"],
            ["analyze", "--p", "5", "--r", "5", "--m", "15626", "--format", "json"],
            ["analyze", "--p", "2", "--r", "4", "--m", "17", "--format", "json"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            payload = json.loads(out)
            jsonschema.validate(payload, schema)
            # documented serialization round-trips losslessly
            assert json.loads(json.dumps(payload)) == payload
            provenances.add(payload["verdict"]["provenance"])
        assert provenances == {p.value for p in Provenance}

    def test_schema_rejects_an_irregular_shape(self, capsys):
        # every pure analysis is regular, so the schema has no NOT_REGULAR shape
        schema = load_schema()
        code, out, _ = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "17", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        payload["certificate"]["primes"]["2"]["shape"] = "NOT_REGULAR"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

    def test_schema_enums_match_the_verdict_enums(self):
        from monogenity.classify import Provenance, Status

        verdict = load_schema()["properties"]["verdict"]["properties"]
        assert verdict["status"]["enum"] == [s.value for s in Status]
        assert verdict["provenance"]["enum"] == [p.value for p in Provenance]

    def test_verify_all_agree(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "2", "--r", "2", "--m", "17",
            "--format", "json", "--verify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]
        assert all(check["agree"] for check in payload["oracle"])

    def test_verify_at_degree_cap(self, capsys):
        # the Dedekind oracle at 17 factors x^4096 over F_17
        code, out, _ = run(
            capsys, "analyze", "--p", "2", "--r", "12", "--m", "17",
            "--format", "json", "--verify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]
        assert all(check["agree"] for check in payload["oracle"])

    def test_verify_catches_a_wrong_point(self, capsys, monkeypatch):
        # nu0 + 1 moves the point (0, nu0) the polygon rests on; the hull
        # oracle, on points it builds itself, must see it
        from monogenity import zpoly

        exact = zpoly.pure_shift_expansion

        def shifted(params):
            expansion = exact(params)
            return zpoly.PureShiftExpansion(expansion.params, expansion.nu0 + 1)

        monkeypatch.setattr(zpoly, "pure_shift_expansion", shifted)
        code, out, err = run(capsys, "analyze", "--p", "3", "--r", "2", "--m", "10", "--verify")
        assert code == 5
        assert "verify: hull vertices (prime 3, base x - 10): DISAGREE" in out
        # one stderr line per failed check, in check order
        assert err == (
            "oracle disagreement: abscissas of wrong valued points (prime 3, base x - 10): "
            "engine [0] vs oracle []\n"
            "oracle disagreement: hull vertices (prime 3, base x - 10): "
            "engine [[0, 3], [1, 2], [3, 1], [9, 0]] vs oracle [[0, 2], [3, 1], [9, 0]]\n"
        )

    def test_verify_catches_a_wrong_interior_point(self, capsys, monkeypatch):
        # v_3(a_5) = 2 raised to 3 moves no vertex, so the hull and index
        # checks pass it; the column check against the oracle's points must not
        from monogenity import zpoly

        exact = zpoly.PureShiftExpansion.valuations

        def raised(self):
            column = list(exact(self))
            column[len(column) // 2] += 1
            return tuple(column)

        monkeypatch.setattr(zpoly.PureShiftExpansion, "valuations", raised)
        argv = ["analyze", "--p", "3", "--r", "2", "--m", "10", "--verify"]
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert "verify: abscissas of wrong valued points (prime 3, base x - 10): DISAGREE" in out
        assert "verify: hull vertices (prime 3, base x - 10): ok" in out
        disagreement = (
            "abscissas of wrong valued points (prime 3, base x - 10): engine [5] vs oracle []"
        )
        assert err == f"oracle disagreement: {disagreement}\n"
        # analyze raises the error after its output; main alone maps it to exit 5
        with pytest.raises(OracleDisagreement) as caught:
            cli.cmd_analyze(cli.build_parser().parse_args(argv))
        assert caught.value.args == (disagreement,)

    def test_degree_cap(self, capsys):
        code, _, err = run(capsys, "analyze", "--p", "2", "--r", "13", "--m", "3")
        assert code == 2
        assert "cap" in err


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging, if the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
class TestBoundedTime:
    """Every m is answered, or rejected with exit 2, in bounded time."""

    def test_large_prime_m(self, capsys):
        # trial division up to sqrt(m) = 10**9 did not finish in 15 s
        with time_limit(20):
            code, out, _ = run(
                capsys, "analyze", "--p", "3", "--r", "1", "--m", "1000000000000000003"
            )
        assert code == 0
        assert "verdict:" in out

    def test_prime_beyond_primality_limit(self, capsys):
        # the first prime above intarith._MR_LIMIT
        with time_limit(20):
            code, _, err = run(
                capsys, "analyze", "--p", "3", "--r", "1", "--m", "3317044064679887385962123"
            )
        assert code == 2
        assert "only decided deterministically" in err

    def test_small_primes_beyond_primality_limit(self, capsys):
        # the product of the primes up to 71 exceeds the limit, yet trial
        # division factors it whole and no primality test is needed
        from monogenity.intarith import _MR_LIMIT, is_prime

        m = math.prod(q for q in range(2, 72) if is_prime(q))
        assert m > _MR_LIMIT
        with time_limit(20):
            code, out, _ = run(
                capsys, "analyze", "--p", "73", "--r", "1", "--m", str(m), "--format", "json"
            )
        assert code == 0
        payload = json.loads(out)
        assert sorted(map(int, payload["certificate"]["primes"])) == [
            q for q in range(2, 74) if is_prime(q)
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scan_rejects_m_beyond_primality_limit(self, capsys, monkeypatch, tmp_path, jobs):
        # these m have a cofactor past intarith._MR_LIMIT; the scan used to
        # write them as not_squarefree and exit 0
        monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)  # 3 rows start 2 workers at --jobs 2
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "rows.csv"
        m = 10**30 + 57
        with time_limit(20):
            code, _, err = run(
                capsys, "scan", "--p", "3", "--r", "1", "--m-from", str(m), "--m-to",
                str(m + 2), "--jobs", str(jobs), "--out", str(out),
            )
            _, _, analyze_err = run(capsys, "analyze", "--p", "3", "--r", "1", "--m", str(m))
        assert code == 2
        assert "only decided deterministically" in err and err == analyze_err
        assert not out.exists() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_square_found_before_the_cofactor(self, capsys, monkeypatch, tmp_path, jobs):
        # 4 times a prime past intarith._MR_LIMIT: trial division finds 2**2,
        # so m is not squarefree and the cofactor is never tested
        monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)  # 2 rows start 2 workers at --jobs 2
        usable_cpus(monkeypatch, 2)
        m = 4 * 3317044064679887385962123
        out = tmp_path / "rows.csv"
        with time_limit(20):
            code, _, err = run(capsys, "analyze", "--p", "3", "--r", "1", "--m", str(m))
            assert code == 2 and f"m must be squarefree, got {m}" in err
            code, _, _ = run(
                capsys, "scan", "--p", "3", "--r", "1", "--m-from", str(m), "--m-to",
                str(m + 4), "--residue", "0", "--modulus", "4", "--jobs", str(jobs),
                "--out", str(out),
            )
        assert code == 0
        assert out.read_text().splitlines()[1:] == [
            f"{m},3,1,,,,,,,,,not_squarefree", f"{m + 4},3,1,,,,,,,,,not_squarefree"
        ]

    @pytest.mark.parametrize("r", [10**4, 10**8])
    @pytest.mark.parametrize("command", ["analyze", "scan", "render"])
    def test_huge_degree_rejected(self, capsys, tmp_path, command, r):
        # printing p**r in the cap message overran int's 4300-digit str()
        # limit at r = 10**4, and building 3**(10**7) alone takes seconds
        argv = {
            "analyze": ["analyze", "--p", "3", "--r", str(r), "--m", "2"],
            "scan": [
                "scan", "--p", "3", "--r", str(r), "--m-from", "2", "--m-to", "9",
                "--out", str(tmp_path / "rows.csv"),
            ],
            "render": [
                "render", "--p", "3", "--r", str(r), "--m", "2", "--at", "3",
                "--out", str(tmp_path / "figure.txt"),
            ],
        }[command]
        with time_limit(20):
            code, _, err = run(capsys, *argv)
        assert code == 2
        assert "exceeds the CLI cap of 4096" in err


class TestParserReuse:
    """main builds its parser once per process, so no option may carry
    over from one call into the next."""

    def test_calls_match_fresh_interpreters(self, capsys, tmp_path, monkeypatch):
        for key in [k for k in os.environ if k.startswith("MONO_")]:
            monkeypatch.delenv(key)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json", "verify": True}))
        scan = ["scan", "--p", "7", "--r", "1", "--m-from", "40", "--m-to", "99"]
        calls = [
            ["analyze", "--p", "3", "--r", "2", "--m", "10", "--verify"],
            ["analyze", "--p", "3", "--r", "2", "--m", "10"],
            scan + ["--jobs", "2"],
            scan,
            ["analyze", "--p", "2", "--r", "3", "--m", "17", "--config", str(config)],
        ]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(monogenity.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def outputs(argv, out_path, fresh):
            if argv[0] == "scan":
                argv = argv + ["--out", str(out_path)]
            if fresh:
                done = subprocess.run(
                    [sys.executable, "-m", "monogenity", *argv],
                    env=env, capture_output=True, timeout=60,
                )
                code, out, err = done.returncode, done.stdout, done.stderr
            else:
                code, out, err = run(capsys, *argv)
                out, err = out.encode(), err.encode()
            rows = out_path.read_bytes() if argv[0] == "scan" else None
            return code, out, err, rows

        expected = [
            outputs(argv, tmp_path / f"fresh-{k}.csv", fresh=True) for k, argv in enumerate(calls)
        ]
        got = [
            outputs(argv, tmp_path / f"reused-{k}.csv", fresh=False) for k, argv in enumerate(calls)
        ]
        assert [e[0] for e in expected] == [0] * len(calls)
        assert got == expected


class TestScan:
    def test_csv_columns_and_rows(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "scan", "--p", "2", "--r", "2",
            "--m-from", "2", "--m-to", "20", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "m,p,r,status,provenance,nu,index_bound,index_exact,P1,N1,shape,skipped_reason"
        assert len(lines) == 20  # header + 19 rows
        assert "skipped" in out
        by_m = {line.split(",")[0]: line for line in lines[1:]}
        assert by_m["4"].endswith("not_squarefree")
        assert "MONOGENIC_ZALPHA" in by_m["2"]

    def test_jsonl_format(self, tmp_path, capsys):
        out_path = tmp_path / "rows.jsonl"
        code, _, _ = run(
            capsys, "scan", "--p", "2", "--r", "2",
            "--m-from", "2", "--m-to", "10", "--out", str(out_path),
            "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(rows) == 9
        assert rows[0]["m"] == 2
        assert rows[0]["status"] == "MONOGENIC_ZALPHA"
        assert rows[2]["skipped_reason"] == "not_squarefree"

    def test_residue_filter(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "scan", "--p", "2", "--r", "2",
            "--m-from", "17", "--m-to", "100", "--residue", "1", "--modulus", "16",
            "--out", str(out_path),
        )
        assert code == 0
        ms = [int(line.split(",")[0]) for line in out_path.read_text().splitlines()[1:]]
        assert ms == [17, 33, 49, 65, 81, 97]

    def test_parallel_matches_serial(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)  # 39 rows still start 4 workers
        usable_cpus(monkeypatch, 4)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["scan", "--p", "2", "--r", "2", "--m-from", "2", "--m-to", "40"]
        assert run(capsys, *base, "--out", str(serial))[0] == 0
        assert run(capsys, *base, "--out", str(parallel), "--jobs", "4")[0] == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_short_scan_starts_no_process(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a scan below two workers' rows started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        rows = 2 * cli._ROWS_PER_WORKER - 1
        base = ["scan", "--p", "7", "--r", "1", "--m-from", "2", "--m-to", str(rows + 1)]
        assert run(capsys, *base, "--out", str(tmp_path / "serial.csv"))[0] == 0
        for jobs in ("2", "8"):
            parallel = tmp_path / f"jobs{jobs}.csv"
            assert run(capsys, *base, "--out", str(parallel), "--jobs", jobs)[0] == 0
            assert parallel.read_bytes() == (tmp_path / "serial.csv").read_bytes()

    @pytest.mark.parametrize(
        "rows_in_k, first, extra",
        [
            ((2, -1), -40, []),
            ((2, 0), -40, ["--residue", "1", "--modulus", "3"]),
            ((4, 0), 10000, []),
        ],
    )
    def test_pool_boundary_bytes(self, tmp_path, capsys, monkeypatch, rows_in_k, first, extra):
        """--jobs 2 writes the same CSV and JSONL as --jobs 1 at 2K - 1, 2K
        and 4K rows (K = _ROWS_PER_WORKER), and starts two workers from 2K on."""
        import concurrent.futures

        started = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        usable_cpus(monkeypatch, 2)
        multiple, offset = rows_in_k
        rows = multiple * cli._ROWS_PER_WORKER + offset
        step = 3 if extra else 1
        base = [
            "scan", "--p", "7", "--r", "1",
            "--m-from", str(first), "--m-to", str(first + step * rows - 1), *extra,
        ]
        for fmt in ("csv", "jsonl"):
            outputs = {}
            for jobs in ("1", "2"):
                out_path = tmp_path / f"jobs{jobs}.{fmt}"
                code, _, _ = run(capsys, *base, "--format", fmt, "--jobs", jobs, "--out", str(out_path))
                assert code == 0
                outputs[jobs] = out_path.read_bytes()
            assert outputs["1"] == outputs["2"]
            assert len(outputs["1"].splitlines()) == rows + (fmt == "csv")
        assert started == ([2, 2] if rows >= 2 * cli._ROWS_PER_WORKER else [])

    @pytest.mark.parametrize(
        "cpus, affinity, jobs, started",
        [
            (2, True, 5000, [2]),  # a huge --jobs forks no more workers than CPUs
            (4, True, 3, [3]),
            (1, True, 8, []),  # one CPU: in process
            (3, False, 8, [3]),  # no sched_getaffinity: os.cpu_count()
            (None, False, 8, []),  # cpu_count() unknown: one CPU, in process
        ],
    )
    def test_pool_workers_capped_at_usable_cpus(
        self, tmp_path, capsys, monkeypatch, cpus, affinity, jobs, started
    ):
        import concurrent.futures

        seen = []

        class InProcess:
            # records the pool's size and maps in this process: no worker starts
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)  # 64 rows allow 64 workers
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        base = ["scan", "--p", "7", "--r", "1", "--m-from", "2", "--m-to", "65"]
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert run(capsys, *base, "--out", str(serial))[0] == 0
        assert seen == []
        assert run(capsys, *base, "--jobs", str(jobs), "--out", str(pooled))[0] == 0
        assert seen == started
        assert pooled.read_bytes() == serial.read_bytes()

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "scan", "--p", "2", "--r", "1",
            "--m-from", "2", "--m-to", "3", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 3

    def test_bad_range(self, capsys):
        code, _, _ = run(
            capsys, "scan", "--p", "2", "--r", "1",
            "--m-from", "5", "--m-to", "3", "--out", "/tmp/unused.csv",
        )
        assert code == 2


class TestByteIdentity:
    """sha256 of outputs from before the closed-form engine at t = p,
    (human text, the p = 7 scan) from before residuals over F_p were
    factored by the F_p[x] module, (residuals over F_(p^k)) from before
    F_p and F_(p^k) shared one factorization, and (analyze JSON at (2, 12, 17),
    (61, 2, 3), (7, 1, 197), with --verify at (3, 5, 10), human text at
    (2, 10, 33)) from before the hull was taken over the support points
    and the point lists were spliced into the JSON, (analyze JSON at
    (3, 4, -10), (2, 12, -3), (5, 2, 10), human text at (2, 12, 17),
    (61, 2, 3)) from before the points were carried as columns and the
    certificate polynomial was written in closed form, and (analyze JSON
    at (3, 7, 10), (7, 4, 2), human text at (3, 7, 10), (5, 5, 7)) from
    before the point text was formatted on bytes, and (analyze JSON at
    (2, 3, 3), (2, 3, 17), (2, 3, 33)) from before the report at t = p
    was built in closed form.  The --verify digest was taken again when
    --verify began to check each report's whole column of valued points.

    Performance work must leave analyze JSON, human text and scan CSV
    byte for byte the same; a digest changes only with a deliberate
    change of format.
    """

    @pytest.mark.parametrize(
        "p, r, m, digest",
        [
            (2, 10, 33, "dbb7c40e17dce20ca86c1e72b6c7dafaf170a2e2964103b661bd8a8b42cd48f9"),
            (5, 5, 7, "044b353e115e61f5c020ef117be2ee75b4a26491948ebf59bc567e2fc5df2ec8"),
            (3, 3, 161, "f4cbfa1ac472f52839b7526f9e70088fef8caac755a35c057c498801258d99ef"),
            (2, 12, 17, "97f613c5ace9dac25d3c59dc6ae8e9bc55c90878ab88598bbcd53b9cbf3a59b3"),
            (61, 2, 3, "2c6dc8980e4616dca01e6b9e4e106c9317a6984190de813bad315d416c5aea1a"),
            (7, 1, 197, "98f18427caae0501dda905e7c2064d11d4e3fcd5d9655adc338c2417f1e3cb32"),
            # m < 0 prints as x^n + |m|; 5 | 10 puts a report at t | m
            (3, 4, -10, "58b397a26fc87a3a6115e458b93deb74994134ddc26cb33d694178c619a06af6"),
            (2, 12, -3, "50268d9f96eb6d299f0bf85e4d7bf683c3336c2f10837fb08ba7224232fd061d"),
            (5, 2, 10, "29d15f1352b2cb01106aea3c7b9670a446b2ea24ec489d2cee08098fc517f269"),
            # odd p: blocks of p - 1 pieces joined level by level
            (3, 7, 10, "04ef699ad8ffa01943d4dde301580a3a4bd9a30baefa591cb2a352f40dc8352a"),
            (7, 4, 2, "587dcda8c5e928721d076a851f76e0fc1cdaf7beeb6c9bfff3d89196fbf65fe3"),
            # p = 2 at t = p: nu0 = 1 (one side), nu0 = r + 1 (a degree-2 side
            # from (0, 4) to (2, 2)) and nu0 >= r + 2 (first vertex at abscissa 1)
            (2, 3, 3, "5afa01ea782a9412c8f82384e59fd7d49860a6a97a618e85044fa874123893d7"),
            (2, 3, 17, "4fbb5a89332ffb30a18bc2143a9c95b31368ff6fcdc5e27697f5d45d566255e1"),
            (2, 3, 33, "e49e6e109a37e531040f965f6c148c26f4b4ae71155f0ef90ce3462a79e50d25"),
        ],
    )
    def test_analyze_json(self, capsys, p, r, m, digest):
        code, out, _ = run(
            capsys, "analyze", "--p", str(p), "--r", str(r), "--m", str(m), "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_analyze_json_verify(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "3", "--r", "5", "--m", "10", "--format", "json", "--verify"
        )
        assert code == 0
        assert (
            hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "880e169a2667e6566a1860aac8919cd011a60d481bfc9eb33c021135cbf7ba6f"
        )

    def test_scan_csv(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "scan", "--p", "2", "--r", "8",
            "--m-from", "1000", "--m-to", "1199", "--out", str(out_path),
        )
        assert code == 0
        assert (
            hashlib.sha256(out_path.read_bytes()).hexdigest()
            == "cda8cdc5f34c3f50d8611d8d92989a3d6af9710de7bce585bd4893375c327c42"
        )

    @pytest.mark.parametrize(
        "p, r, m, digest",
        [
            (3, 3, 161, "3875835a40575329870bd47e98126155ff3fae0651cc6399f3bd2f776ef1954a"),
            (7, 1, 10001, "3286eef80fdadb87a4963ce3291412851a29abc78af7cf93a3404bb2bac71eaa"),
            # m = 1 mod 49: UNDETERMINED
            (7, 1, 197, "adcceb1fe1d1fed3660483ebb938a59971d1394f8f1aafe3844af627cdb6653c"),
            (2, 10, 33, "d7fee696db5d1cd4cb4ca17c2b5a39fe77a5e554175b3c1286cf746b4a0e5281"),
            (2, 12, 17, "c62c4b54b7b01ccab60b41cd474adb16ad3cb214eaab8fbe98e23d01c2db04e5"),
            (61, 2, 3, "5e89718c2c4b4b68caba482dce95625e681a1d2b99586d9c1605a84c3b4f961f"),
            (3, 7, 10, "5343294124c1d4ba62f3f9c548d3eff227e60ce1938a0e925dbfb64b82d97f48"),
            (5, 5, 7, "24569863a5954ca5178d41ae797282bebb13a46fb6708f3d740ab94b31122c47"),
        ],
    )
    def test_analyze_human(self, capsys, p, r, m, digest):
        code, out, _ = run(
            capsys, "analyze", "--p", str(p), "--r", str(r), "--m", str(m), "--format", "human"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, r, m, at, fmt, digest",
        [
            (3, 3, 161, 3, "ascii", "79704aea0cb015937fb4b7a68ebdf17da6d9ef188d8a98de265d31e8674cc4ae"),
            (3, 3, 161, 3, "svg", "e2ad9554ce6ddd34f7ce2f72e8910bd534c53e1aed52dbf9e0638cdb7ea87a94"),
            (2, 12, 17, 2, "ascii", "37fab3d160c2619fb8a9eb72241a62e1dc41809b03d33c99f9726255ded39904"),
            (2, 12, 17, 2, "svg", "de25453815080624031fd1de1aed4bcb9eee1bf0ff5d2f099eaa388d5018c7e7"),
            # 3 | 6: the one Eisenstein side at a prime of m
            (2, 2, 6, 3, "ascii", "861f8d1a3ecb5add1378d9182977ea94ca239d4c70d19955275bc944af3dce10"),
            (2, 2, 6, 3, "svg", "019dafc4adc5a513027f697ad794f9a1ce050e9577b2f2d47deb31f0c8eb79a6"),
        ],
    )
    def test_render(self, tmp_path, capsys, p, r, m, at, fmt, digest):
        # taken before the side labels were written by Side.slope_text
        out_path = tmp_path / f"fig.{fmt}"
        code, _, _ = run(
            capsys, "render", "--p", str(p), "--r", str(r), "--m", str(m),
            "--at", str(at), "--format", fmt, "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_csv_prime_field(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)  # 200 rows still start a pool at --jobs 2
        usable_cpus(monkeypatch, 2)
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "scan", "--p", "7", "--r", "1",
            "--m-from", "10000", "--m-to", "10199", "--jobs", jobs, "--out", str(out_path),
        )
        assert code == 0
        assert (
            hashlib.sha256(out_path.read_bytes()).hexdigest()
            == "9518638306e1b74c59d4299e8de8d158a41339742ae636d8d510be25d69176d4"
        )

    # (phi, p, k, terms): f = phi^k + the sum of p^a * c * phi^j over the
    # (j, a, c) in terms; every residue field F_phi here has degree 2..4
    EXTENSION_CASES = [
        ((1, 1, 1), 2, 4, [(0, 2, (1,))]),
        ((1, 1, 1), 2, 6, [(0, 3, (1, 1))]),
        ((1, 1, 0, 1), 2, 3, [(0, 3, (1,))]),
        ((1, 1, 0, 1), 2, 4, [(0, 2, (1, 0, 1)), (2, 1, (1,))]),
        ((1, 1, 0, 0, 1), 2, 5, [(0, 5, (1,))]),
        ((1, 0, 1), 3, 4, [(0, 2, (1,))]),
        ((1, 2, 0, 1), 3, 3, [(0, 3, (1,))]),
        ((1, 0, 1, 1, 1), 3, 4, [(0, 4, (2,))]),
        ((2, 0, 1), 5, 4, [(0, 2, (1,)), (2, 1, (3,))]),
        ((2, 0, 1), 5, 3, [(0, 3, (1, 1))]),
        ((1, 0, 1), 7, 2, [(0, 2, (3,))]),
        ((2, 0, 0, 1), 7, 3, [(0, 3, (1,))]),
        ((1, 0, 0, 1, 1), 7, 4, [(0, 4, (1,))]),
    ]

    def test_residuals_over_extension_fields(self):
        # the pure family only meets F_phi = F_p, so no other digest covers
        # residuals and factors over F_{p^k} with k >= 2
        from monogenity import general, ore

        def power(phi, k):
            out = (1,)
            for _ in range(k):
                out = general.mul(out, phi)
            return out

        lines = []
        for phi, p, k, terms in self.EXTENSION_CASES:
            f = power(phi, k)
            for j, a, c in terms:
                f = general.add(f, general.mul((p**a,), general.mul(c, power(phi, j))))
            for report in ore.analyze_prime(f, p):
                for side in report.sides:
                    lines.append(f"{side.residual}|{';'.join(side.factor_strings())}")
        text = "\n".join(lines)
        assert (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "aa23637b9ea4882d27a8121283ad2d461e3ed05e2b67c4c576d6b1432587c709"
        )


@st.composite
def _json_fields(draw):
    """(p, r, m, verify) with p**r <= 4096 and m squarefree in +-[2, 10**6]."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    r = draw(st.integers(1, int(math.log(4096, p) + 1e-9)))
    m = draw(st.integers(2, 10**6).filter(is_squarefree)) * draw(st.sampled_from([1, -1]))
    return p, r, m, draw(st.booleans())


# characters json.dumps escapes or passes through: quote, backslash, C0
# controls, DEL, Latin-1, the JavaScript line separator, a lone surrogate
# and an astral character (written as a surrogate pair)
_JSON_CHARS = st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u00e9\u2028\ud800\U0001f600') | st.characters()
_JSON_STRINGS = st.text(_JSON_CHARS, max_size=8)
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(2**64, 10**40)
    | _JSON_STRINGS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_STRINGS, children, max_size=4),
    max_leaves=40,
)


def _nested(depth, leaf):
    tree = leaf
    for level in range(depth):
        tree = [tree] if level % 2 else {"k": tree, "": []}
    return tree


def json_text(value):  # what analyze --format json writes for value, less its last newline
    out = []
    cli._emit(value, "\n", out.append)
    return "".join(out)


class TestJsonEmitter:
    """cli._emit against the reference encoder, with each report's
    points materialized as the [i, v] lists the schema describes."""

    # bench/workloads.py ANCHORS: the analyze_ladder rungs
    LADDER = (
        (2, 2, 17), (3, 3, 161), (7, 1, 2), (5, 1, 7), (3, 5, 10), (2, 10, 33),
        (3, 7, 10), (7, 4, 2), (5, 5, 7), (61, 2, 3), (2, 12, 3), (2, 12, 17),
        (3, 1, 1000003 * 1000000007),
    )

    @staticmethod
    def payload(p, r, m, verify):
        from monogenity.classify import classify
        from monogenity.zpoly import PureFieldParams

        verdict = classify(PureFieldParams(p, r, m))
        return cli._analyze_payload(verdict, cli._oracle_reports(verdict) if verify else None)

    def check(self, p, r, m, verify):
        from monogenity.classify import classify
        from monogenity.zpoly import PureFieldParams

        payload = self.payload(p, r, m, verify)
        analyses = classify(PureFieldParams(p, r, m)).certificate.analyses
        reports = {str(a.prime): a.reports for a in analyses}
        primes = {
            prime: {
                **analysis,
                "factors": [
                    {**factor, "points": [[i, v] for i, v in report.points]}
                    for factor, report in zip(analysis["factors"], reports[prime], strict=True)
                ],
            }
            for prime, analysis in payload["certificate"]["primes"].items()
        }
        reference = {**payload, "certificate": {**payload["certificate"], "primes": primes}}
        assert json_text(payload) == json.dumps(reference, indent=2, sort_keys=True)

    @given(_json_fields())
    @settings(max_examples=40, deadline=None)
    @example((2, 12, 6, False))  # p | m at degree 4096
    @example((2, 12, 6, True))
    @example((5, 3, 10, True))  # p | m under --verify
    @example((3, 7, -7, False))
    @example((11, 2, -2, True))
    def test_matches_json_dumps(self, field):
        self.check(*field)

    @pytest.mark.parametrize("p, r, m", LADDER)
    def test_ladder(self, p, r, m):
        self.check(p, r, m, False)

    @given(_JSON_TREES)
    @settings(max_examples=300, deadline=None)
    @example({})
    @example([])
    @example({"a": {}, "b": [], "c": [{}, []], "": ""})
    @example(["\"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600", -(2**64), 2**64, True, False, None, 0, 1])
    @example({"\U0001f600": 1, "\u00e9": 2, "z": 3, "a": 4, "\x00": 5, "A": 6})
    @example(_nested(120, "leaf"))
    @example(_nested(121, {}))
    def test_trees_match_json_dumps(self, tree):
        assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), {1, 2}, frozenset(), b"x"])
    def test_other_types_raise(self, bad):
        payload = self.payload(2, 2, 17, False)
        with pytest.raises(TypeError):
            json_text({**payload, "extra": bad})
        with pytest.raises(TypeError):
            json_text({**payload, "oracle": [{"engine": [bad]}]})


@st.composite
def _shifted_fields(draw):
    """(p, r, m, nu0) with p**r <= 4096, m of either sign, and nu0 = v_p(a_0)
    = v_p(m**n - m) below, equal to or above r."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 61]))
    r = draw(st.integers(1, int(math.log(4096, p) + 1e-9)))
    nu0 = draw(st.sampled_from([k for k in (1, r - 1, r, r + 1, r + 3) if k >= 1]))
    # m = 1 + p**nu0 * c with p not dividing c; then v_p(m**(n - 1) - 1) is
    # v_p(m - 1) = nu0 by lifting the exponent, as p does not divide n - 1
    c = draw(st.integers(-(10**4), 10**4).filter(lambda c: c % p))
    m = 1 + p**nu0 * c
    assume(abs(m) >= 2 and is_squarefree(m))
    return p, r, m, nu0


def _valuation(p, n):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class TestPointWriters:
    """The point text of both writers against json.dumps and " ".join of the
    explicit pairs (0, v_p(m**n - m)), (j, r - v_p(j)) for 0 < j < n, (n, 0)."""

    @given(_shifted_fields())
    @settings(max_examples=60, deadline=None)
    @example((2, 12, 17, 4))  # the largest field of the analyze ladder
    @example((2, 12, 2049, 11))  # a two-digit nu0
    def test_points_match_explicit_pairs(self, field):
        from monogenity.zpoly import PureFieldParams, pure_shift_expansion

        p, r, m, nu0 = field
        expansion = pure_shift_expansion(PureFieldParams(p, r, m))
        n = p**r
        pairs = [[0, _valuation(p, m**n - m)]]
        pairs += [[j, r - _valuation(p, j)] for j in range(1, n)] + [[n, 0]]
        assert pairs[0][1] == nu0 == expansion.nu0
        assert json_text({"points": expansion}) == json.dumps(
            {"points": pairs}, indent=2, sort_keys=True
        )
        assert cli._points_text(expansion, "(%d,{})", " ") == " ".join(
            f"({j},{v})" for j, v in pairs
        )


class TestIrregularMutant:
    """A NOT_REGULAR splitting, which no pure field has, is an internal
    error: classify raises and the CLI exits 4, with no row or report."""

    @pytest.fixture(autouse=True)
    def irregular(self, monkeypatch):
        from monogenity import ore

        monkeypatch.setattr(ore, "splitting_shape", lambda reports: ore.NOT_REGULAR)

    def test_classify_raises(self):
        from monogenity.classify import classify
        from monogenity.errors import InvariantError
        from monogenity.zpoly import PureFieldParams

        with pytest.raises(InvariantError, match="not regular"):
            classify(PureFieldParams(2, 2, 17))

    def test_analyze_exits_4(self, capsys):
        code, out, err = run(capsys, "analyze", "--p", "3", "--r", "3", "--m", "161")
        assert code == 4
        assert out == ""
        assert "not regular" in err

    def test_scan_exits_4(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, err = run(
            capsys, "scan", "--p", "7", "--r", "1",
            "--m-from", "2", "--m-to", "20", "--jobs", "1", "--out", str(out_path),
        )
        assert code == 4
        assert "not regular" in err
        assert not out_path.exists()


class TestAtomicOutput:
    """An error while the output is produced leaves no partial file: the
    old file at --out keeps its bytes and nothing else is left beside it."""

    def _fail(self, *args, **kwargs):
        from monogenity.errors import InvariantError

        raise InvariantError("injected")

    def test_scan(self, tmp_path, capsys, monkeypatch):
        from monogenity import cli

        out_path = tmp_path / "rows.csv"
        out_path.write_bytes(b"old rows\n")
        monkeypatch.setattr(cli, "_format_rows", self._fail)
        code, _, err = run(
            capsys, "scan", "--p", "2", "--r", "2",
            "--m-from", "2", "--m-to", "20", "--out", str(out_path),
        )
        assert code == 4
        assert "injected" in err
        assert out_path.read_bytes() == b"old rows\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_render(self, tmp_path, capsys, monkeypatch):
        from monogenity import render

        out_path = tmp_path / "fig.txt"
        out_path.write_bytes(b"old figure\n")
        monkeypatch.setattr(render, "render_ascii", self._fail)
        code, _, _ = run(
            capsys, "render", "--p", "3", "--r", "3", "--m", "161", "--at", "3",
            "--format", "ascii", "--out", str(out_path),
        )
        assert code == 4
        assert out_path.read_bytes() == b"old figure\n"
        assert os.listdir(tmp_path) == ["fig.txt"]

    def test_interrupt_while_writing(self, tmp_path, monkeypatch):
        from monogenity import cli

        def interrupted(rows, fmt):
            raise KeyboardInterrupt

        out_path = tmp_path / "rows.csv"
        monkeypatch.setattr(cli, "_format_rows", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["scan", "--p", "2", "--r", "1", "--m-from", "2", "--m-to", "5",
                  "--out", str(out_path)])
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
    def test_write_cut_short(self, tmp_path):
        # a file size limit on the child makes the write itself fail midway
        child = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))\n"
            "from monogenity.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out_path = tmp_path / "rows.csv"
        out_path.write_bytes(b"old rows\n")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        src = os.path.dirname(os.path.dirname(monogenity.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", child, "scan", "--p", "2", "--r", "1",
             "--m-from", "2", "--m-to", "300", "--out", str(out_path)],
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 3, done.stderr
        assert out_path.read_bytes() == b"old rows\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_new_file_replaces_old(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        out_path.write_bytes(b"old rows\n")
        code, _, _ = run(
            capsys, "scan", "--p", "2", "--r", "1",
            "--m-from", "2", "--m-to", "3", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("m,p,r,status")
        assert os.listdir(tmp_path) == ["rows.csv"]


class TestRender:
    def test_ascii_file(self, tmp_path, capsys):
        out_path = tmp_path / "fig.txt"
        code, _, _ = run(
            capsys, "render", "--p", "3", "--r", "3", "--m", "161", "--at", "3",
            "--format", "ascii", "--out", str(out_path),
        )
        assert code == 0
        assert "S4: slope -1/18" in out_path.read_text()

    def test_svg_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        base = ["render", "--p", "3", "--r", "3", "--m", "161", "--at", "3",
                "--format", "svg"]
        assert run(capsys, *base, "--out", str(a))[0] == 0
        assert run(capsys, *base, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_side_for_q_dividing_m(self, tmp_path, capsys):
        out_path = tmp_path / "fig.txt"
        code, _, _ = run(
            capsys, "render", "--p", "2", "--r", "2", "--m", "3", "--at", "3",
            "--format", "ascii", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert "S1: slope -1/4, length 4, degree 1" in text
        assert "S2" not in text

    def test_unwritable(self, capsys):
        code, _, _ = run(
            capsys, "render", "--p", "2", "--r", "2", "--m", "3", "--at", "3",
            "--out", "/nonexistent-dir/fig.svg",
        )
        assert code == 3

    @pytest.mark.parametrize("at", ["7", "4"])
    def test_prime_off_p_and_m_rejected(self, tmp_path, capsys, at):
        # 7 divides neither 3 nor 10; 4 is composite and gets the same answer
        out_path = tmp_path / "fig.txt"
        code, out, err = run(
            capsys, "render", "--p", "3", "--r", "1", "--m", "10", "--at", at,
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {at} divides neither p nor m; there is no interesting polygon to draw\n"
        )
        assert not out_path.exists()


class TestConfigPrecedence:
    def test_env_sets_format(self, capsys, monkeypatch):
        monkeypatch.setenv("MONO_FORMAT", "json")
        code, out, _ = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "3")
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "MONOGENIC_ZALPHA"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MONO_FORMAT", "json")
        code, out, _ = run(
            capsys, "analyze", "--p", "2", "--r", "2", "--m", "3", "--format", "human"
        )
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_config_file_lowest(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "mono.json"
        config.write_text(json.dumps({"format": "json"}))
        monkeypatch.setenv("MONO_CONFIG", str(config))
        code, out, _ = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "3")
        assert code == 0
        assert json.loads(out)["input"]["m"] == 3
        monkeypatch.setenv("MONO_FORMAT", "human")
        code, out, _ = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "3")
        assert code == 0
        assert out.startswith("x^4 - 3")

    SCAN = ("scan", "--p", "7", "--r", "1", "--m-from", "2", "--m-to", "20")

    @pytest.mark.parametrize(
        "env, config",
        [
            ("abc", None),
            ("0", None),
            ("2.0", None),
            ("1_0", None),  # int() would take it
            ("9" * 5000, None),  # past int()'s digit limit
            (None, 2.7),
            (None, True),
            (None, "2"),
            (None, 0),
        ],
        ids=[
            "env-word", "env-zero", "env-decimal-point", "env-underscore", "env-5000-digits",
            "config-float", "config-bool", "config-string", "config-zero",
        ],
    )
    def test_bad_jobs_rejected(self, capsys, tmp_path, monkeypatch, env, config):
        monkeypatch.delenv("MONO_CONFIG", raising=False)
        if env is None:
            monkeypatch.delenv("MONO_JOBS", raising=False)
        else:
            monkeypatch.setenv("MONO_JOBS", env)
        argv = [*self.SCAN, "--out", str(tmp_path / "rows.csv")]
        if config is not None:
            path = tmp_path / "mono.json"
            path.write_text(json.dumps({"jobs": config}))
            argv += ["--config", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "jobs" in err.lower()
        assert not (tmp_path / "rows.csv").exists()

    def test_bad_jobs_flag_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, err = run(capsys, *self.SCAN, "--out", str(out_path), "--jobs", "0")
        assert code == 2
        assert err.startswith("error: --jobs")
        with pytest.raises(SystemExit) as exc:
            main([*self.SCAN, "--out", str(out_path), "--jobs", "2.5"])
        assert exc.value.code == 2
        assert not out_path.exists()

    def test_good_jobs_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("MONO_CONFIG", raising=False)
        out_path = tmp_path / "rows.csv"
        monkeypatch.setenv("MONO_JOBS", "2")
        assert run(capsys, *self.SCAN, "--out", str(out_path))[0] == 0
        monkeypatch.delenv("MONO_JOBS")
        config = tmp_path / "mono.json"
        config.write_text(json.dumps({"jobs": 2}))
        assert run(capsys, *self.SCAN, "--out", str(out_path), "--config", str(config))[0] == 0
        monkeypatch.setenv("MONO_JOBS", "abc")  # the flag beats an invalid MONO_JOBS
        assert run(capsys, *self.SCAN, "--out", str(out_path), "--jobs", "1")[0] == 0

    def test_bad_config_rejected(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "mono.json"
        config.write_text("{not json")
        monkeypatch.setenv("MONO_CONFIG", str(config))
        code, _, err = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "3")
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"format": "json", "note": "\xff"}',  # not UTF-8
            b'{"jobs": ' + b"9" * 5000 + b"}",  # past int()'s digit limit
            b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
        ],
        ids=["not-utf8", "5000-digit-int", "nested-arrays"],
    )
    @pytest.mark.parametrize("via", ["analyze-flag", "scan-env"])
    def test_undecodable_config_rejected(self, capsys, tmp_path, monkeypatch, content, via):
        config = tmp_path / "mono.json"
        config.write_bytes(content)
        out_path = tmp_path / "rows.csv"
        if via == "analyze-flag":
            monkeypatch.delenv("MONO_CONFIG", raising=False)
            argv = ["analyze", "--p", "2", "--r", "2", "--m", "3", "--config", str(config)]
        else:
            monkeypatch.setenv("MONO_CONFIG", str(config))
            argv = [*self.SCAN, "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config file {config} is not valid JSON: ")
        assert not out_path.exists()


class TestBooleanOptions:
    """verify (analyze) and linear_x (render) from MONO_VERIFY/MONO_LINEAR_X or
    the config file: a boolean word or a JSON boolean, anything else exits 2."""

    ANALYZE = ("analyze", "--p", "3", "--r", "1", "--m", "2")
    RENDER = ("render", "--p", "2", "--r", "6", "--m", "3", "--at", "2", "--format", "svg")

    def outcome(self, capsys, tmp_path, monkeypatch, name, env, config):
        """(exit code, stderr, whether the option took effect) with the option
        set by env (a string) and by config (JSON text for its value)."""
        for var in ("MONO_CONFIG", "MONO_VERIFY", "MONO_LINEAR_X"):
            monkeypatch.delenv(var, raising=False)
        if env is not None:
            monkeypatch.setenv(f"MONO_{name.upper()}", env)
        extra = []
        if config is not None:
            path = tmp_path / "mono.json"
            path.write_text(f'{{"{name}": {config}}}')
            extra = ["--config", str(path)]
        if name == "verify":
            code, out, err = run(capsys, *self.ANALYZE, *extra)
            assert code == 0 or out == ""
            return code, err, "verify:" in out
        svg = tmp_path / "fig.svg"
        code, _, err = run(capsys, *self.RENDER, "--out", str(svg), *extra)
        if code != 0:
            assert not svg.exists()
            return code, err, None
        linear = tmp_path / "linear.svg"
        assert run(capsys, *self.RENDER, "--out", str(linear), "--linear-x")[0] == 0
        return code, err, svg.read_bytes() == linear.read_bytes()

    @pytest.mark.parametrize("name", ["verify", "linear_x"])
    @pytest.mark.parametrize(
        "env, config",
        [
            ("ture", None),
            ("2", None),
            ("y", None),
            ("true false", None),
            (None, '"maybe"'),
            (None, '"true"'),
            (None, "2.7"),
            (None, "1"),
            (None, "[]"),
            (None, "null"),
        ],
        ids=[
            "env-typo", "env-two", "env-y", "env-two-words", "config-word", "config-string",
            "config-float", "config-int", "config-list", "config-null",
        ],
    )
    def test_bad_values_rejected(self, capsys, tmp_path, monkeypatch, name, env, config):
        code, err, _ = self.outcome(capsys, tmp_path, monkeypatch, name, env, config)
        assert code == 2
        source = f"MONO_{name.upper()}" if env is not None else f"config key '{name}'"
        assert err.startswith(f"error: {source} must be a boolean, got ")

    @pytest.mark.parametrize("name", ["verify", "linear_x"])
    @pytest.mark.parametrize(
        "env, config, expected",
        [
            ("1", None, True),
            ("true", None, True),
            (" YES ", None, True),
            ("On", None, True),
            ("0", None, False),
            ("False", None, False),
            ("no", None, False),
            (" off\n", None, False),
            ("", None, False),
            ("  ", None, False),
            (None, "true", True),
            (None, "false", False),
            (None, None, False),
            ("no", "true", False),  # the environment beats the config
        ],
    )
    def test_good_values_accepted(self, capsys, tmp_path, monkeypatch, name, env, config, expected):
        code, err, took_effect = self.outcome(capsys, tmp_path, monkeypatch, name, env, config)
        assert (code, err) == (0, "")
        assert took_effect is expected

    def test_flag_beats_invalid_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MONO_VERIFY", "maybe")
        code, out, _ = run(capsys, *self.ANALYZE, "--verify")
        assert code == 0
        assert "verify:" in out
