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
from monogenity import cli, output
from monogenity.cli import main
from monogenity.errors import OracleDisagreement
from monogenity.intarith import is_squarefree
from pinned_outputs import ERRORS, PINS, argv_of, fill


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

    def test_balanced_semiprime_below_primality_limit(self, capsys):
        # the hardest kind of m the bound still answers: two 13-digit primes,
        # which only Brent's rho splits; 1.3-1.5 s a process on a 2-vCPU Xeon VM
        from monogenity.intarith import _MR_LIMIT

        m = 1800000000047 * 1840000000001
        assert m == 3312000000088280000000047 < _MR_LIMIT
        with time_limit(20):
            code, out, _ = run(
                capsys, "analyze", "--p", "3", "--r", "1", "--m", str(m), "--format", "json"
            )
        assert code == 0
        primes = json.loads(out)["certificate"]["discriminant_valuations"]
        assert sorted(map(int, primes)) == [3, 1800000000047, 1840000000001]

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

    def test_psi_12_is_factored(self, capsys):
        # psi_12, the least strong pseudoprime to the 12 prime bases up to 37:
        # it used to pass as prime and stand for itself among the primes of
        # m; Brent's rho splits it in about 0.25 s on a 2 GHz core
        with time_limit(20):
            code, out, _ = run(
                capsys, "analyze", "--p", "3", "--r", "1", "--m", "318665857834031151167461",
                "--format", "json",
            )
        assert code == 0
        payload = json.loads(out)
        assert list(payload["certificate"]["discriminant_valuations"]) == [
            "3", "399165290221", "798330580441"
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

    def test_huge_scan_refused_at_once(self, tmp_path):
        # 10**11 + 1 rows: the scan used to build its lists until the kernel
        # killed it; a fresh process with 512 MiB of address space must now
        # count the rows and refuse them
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        out = tmp_path / "rows.csv"
        argv = [
            sys.executable, "-S", "-m", "monogenity", "scan", "--p", "3", "--r", "1",
            "--m-from", "0", "--m-to", str(10**11), "--out", str(out),
        ]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        done = subprocess.run(
            argv, env=env, preexec_fn=limit, capture_output=True, text=True, timeout=20
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            "error: the scan has 100000000001 values of m, past the cap of 500000 rows\n"
        )
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_io_error_names_the_out_path(self, tmp_path, target):
        # the open of the partial file and its rename both failed naming
        # <out>.<pid>.partial, so the message changed from run to run
        if target == "missing-dir":
            out = tmp_path / "missing" / "rows.csv"
            expected = f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
        else:
            out = tmp_path / "rows.csv"
            out.mkdir()
            expected = f"i/o error: [Errno 21] Is a directory: '{out}'\n"
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(monogenity.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [
            sys.executable, "-m", "monogenity", "scan", "--p", "3", "--r", "1",
            "--m-from", "1", "--m-to", "5", "--out", str(out),
        ]
        for _ in range(2):  # a fresh process, with a new pid, each time
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stdout, done.stderr) == (3, "", expected)
            assert [path.name for path in tmp_path.iterdir()] == (
                [] if target == "missing-dir" else ["rows.csv"]
            )

    @pytest.mark.parametrize(
        "window",
        [
            ("--m-from", "-2", "--m-to", "7"),
            ("--m-from", "-20", "--m-to", "79", "--residue", "3", "--modulus", "10"),
        ],
        ids=["range", "residue"],
    )
    def test_row_cap(self, tmp_path, capsys, monkeypatch, window):
        # both windows have 10 rows, counted before any row is built: at the
        # cap the scan runs, one row past it exits 2 and writes nothing
        out_path = tmp_path / "rows.csv"
        argv = ["scan", "--p", "3", "--r", "1", *window, "--out", str(out_path)]
        monkeypatch.setattr(cli, "_MAX_SCAN_ROWS", 10)
        assert run(capsys, *argv)[0] == 0
        assert len(out_path.read_text().splitlines()) == 1 + 10
        out_path.unlink()
        monkeypatch.setattr(cli, "_MAX_SCAN_ROWS", 9)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: the scan has 10 values of m, past the cap of 9 rows\n"
        assert list(tmp_path.iterdir()) == []


class TestByteIdentity:
    """Outputs pinned by sha256, and rejections pinned byte for byte:
    tests/pinned_outputs.py holds every digest and error a command line can
    reach, and the two below pin what none can.  The p = 7 scan was taken
    before residuals over F_p were factored by the F_p[x] module, the
    residuals over F_(p^k) before F_p and F_(p^k) shared one factorization."""

    @pytest.mark.parametrize("digest, text", PINS, ids=[text for _, text in PINS])
    def test_pinned_output(self, tmp_path, capsys, digest, text):
        out_path = tmp_path / "out"
        code, out, _ = run(capsys, *argv_of(text, out_path))
        assert code == 0
        data = out_path.read_bytes() if "{out}" in text else out.encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("code, stderr, text", ERRORS, ids=[text for *_, text in ERRORS])
    def test_error_pin(self, tmp_path, capsys, code, stderr, text):
        got = run(capsys, *fill(text, tmp_path).split())
        assert got == (code, "", f"{fill(stderr, tmp_path)}\n")
        assert list(tmp_path.iterdir()) == []

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
        from monogenity import ore

        def power(phi, k):
            out = (1,)
            for _ in range(k):
                out = ore.mul(out, phi)
            return out

        lines = []
        for phi, p, k, terms in self.EXTENSION_CASES:
            f = power(phi, k)
            for j, a, c in terms:
                f = ore.add(f, ore.mul((p**a,), ore.mul(c, power(phi, j))))
            for report in ore.analyze_prime(f, p):
                for side in report.sides:
                    lines.append(f"{side.residual_text()}|{';'.join(side.factor_strings())}")
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
    output._emit(value, "\n", out.append)
    return "".join(out)


class TestJsonEmitter:
    """output._emit against the reference encoder, with each report's
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
        return output._analyze_payload(verdict, output._oracle_reports(verdict) if verify else None)

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
    @example((3, 7, 10, 2))  # many chunks at each level of p**L: 243, 125, 61, 49
    @example((5, 5, 7, 2))
    @example((61, 2, 3, 1))
    @example((7, 4, 2, 1))
    @example((257, 1, 258, 1))  # one block of p - 1 = 256 points at v = r
    @example((4093, 1, 4094, 1))  # p - 1 = 15 * 256 + 252: a block filled 256 at a time
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
        chunks = []
        output._points_text(expansion, "(%d,{})", " ", chunks.append)
        assert "".join(chunks) == " ".join(f"({j},{v})" for j, v in pairs)
        assert max(map(len, chunks)) < 32 * 1024

    @pytest.mark.parametrize("fmt", ["json", "human"])
    def test_writers_hold_no_buffer_that_grows_with_n(self, fmt, monkeypatch):
        # analyze at n = 4096 writing into a stream that keeps nothing; the
        # whole point text at once took 260 KiB (human) to 1,171 KiB (JSON)
        import tracemalloc

        class Discard:
            def write(self, text):
                return len(text)

        argv = ["analyze", "--p", "2", "--r", "12", "--m", "17", "--format", fmt]
        monkeypatch.setattr(sys, "stdout", Discard())
        assert main(argv) == 0  # imports and caches, before the count starts
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024


class TestAtomicOutput:
    """An error while the output is produced leaves no partial file: the
    old file at --out keeps its bytes and nothing else is left beside it."""

    def _fail(self, *args, **kwargs):
        from monogenity.errors import InvariantError

        raise InvariantError("injected")

    def _fail_at(self, monkeypatch, m, exc):
        """Make the scan row of m raise exc, after the rows before it are written."""
        row = cli._scan_row

        def failing(task):
            if task[2] == m:
                raise exc
            return row(task)

        monkeypatch.setattr(cli, "_scan_row", failing)

    def test_scan(self, tmp_path, capsys, monkeypatch):
        from monogenity.errors import InvariantError

        out_path = tmp_path / "rows.csv"
        out_path.write_bytes(b"old rows\n")
        self._fail_at(monkeypatch, 15, InvariantError("injected"))
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
        out_path = tmp_path / "rows.csv"
        self._fail_at(monkeypatch, 4, KeyboardInterrupt)
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

    @pytest.mark.parametrize("stale", ["file", "symlink"])
    @pytest.mark.parametrize(
        "text",
        [
            "scan --p 2 --r 8 --m-from 1000 --m-to 1199 --out {out}",
            "render --p 3 --r 3 --m 161 --at 3 --format ascii --out {out}",
        ],
        ids=["scan", "render"],
    )
    def test_stale_partial_is_replaced(self, tmp_path, capsys, text, stale):
        # a run killed with this pid leaves its partial file behind, which
        # must not block a later write to the same --out; a symlink planted
        # at that name is removed, and its target never written
        out_path = tmp_path / "out"
        partial = tmp_path / f"out.{os.getpid()}.partial"
        sentinel = tmp_path / "sentinel"
        sentinel.write_bytes(b"sentinel\n")
        if stale == "file":
            partial.write_bytes(b"stale rows\n")
        else:
            partial.symlink_to(sentinel)
        code, _, _ = run(capsys, *argv_of(text, out_path))
        assert code == 0
        digest = dict(map(reversed, PINS))[text]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
        assert sentinel.read_bytes() == b"sentinel\n"
        assert sorted(os.listdir(tmp_path)) == ["out", "sentinel"]

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

    @pytest.mark.parametrize("via", ["analyze-flag", "scan-env"])
    def test_config_array_rejected(self, capsys, tmp_path, monkeypatch, via):
        # valid JSON, but the options are keys of an object
        config = tmp_path / "mono.json"
        config.write_text(json.dumps([{"format": "json"}]))
        out_path = tmp_path / "rows.csv"
        if via == "analyze-flag":
            monkeypatch.delenv("MONO_CONFIG", raising=False)
            argv = ["analyze", "--p", "2", "--r", "2", "--m", "3", "--config", str(config)]
        else:
            monkeypatch.setenv("MONO_CONFIG", str(config))
            argv = [*self.SCAN, "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: config file {config} must hold a JSON object\n"
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


class TestOptionErrors:
    """Every option is resolved and checked before the command runs: the
    format first, then the command's other option, then p, r and m."""

    ARGV = {
        "analyze": ["analyze", "--p", "4", "--r", "1", "--m", "2"],
        "scan": ["scan", "--p", "4", "--r", "1", "--m-from", "2", "--m-to", "9"],
        "render": ["render", "--p", "4", "--r", "1", "--m", "2", "--at", "2"],
    }
    OTHER = {"analyze": "verify", "scan": "jobs", "render": "linear_x"}

    def outcome(self, capsys, tmp_path, monkeypatch, command, env, config):
        """(exit code, stdout, stderr) with MONO_<NAME> set from env and the
        config file from config, and no --out file left behind."""
        for key in [k for k in os.environ if k.startswith("MONO_")]:
            monkeypatch.delenv(key)
        for name, value in env.items():
            monkeypatch.setenv(f"MONO_{name.upper()}", value)
        path = tmp_path / "mono.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.txt"
        argv = self.ARGV[command] + ["--config", str(path)]
        if command != "analyze":
            argv += ["--out", str(out)]
        result = run(capsys, *argv)
        assert not out.exists()
        return result

    @pytest.mark.parametrize("source", ["env", "config"])
    @pytest.mark.parametrize("command", ["analyze", "scan", "render"])
    def test_unknown_format(self, capsys, tmp_path, monkeypatch, command, source):
        env, config = ({"format": "yaml"}, {}) if source == "env" else ({}, {"format": "yaml"})
        result = self.outcome(capsys, tmp_path, monkeypatch, command, env, config)
        assert result == (2, "", f"error: unknown {command} format 'yaml'\n")

    @pytest.mark.parametrize("command", ["analyze", "scan", "render"])
    def test_format_then_option_then_p(self, capsys, tmp_path, monkeypatch, command):
        other = self.OTHER[command]
        env = {"format": "yaml", other: "maybe"}
        result = self.outcome(capsys, tmp_path, monkeypatch, command, env, {})
        assert result == (2, "", f"error: unknown {command} format 'yaml'\n")
        env = {other: "maybe"}
        result = self.outcome(capsys, tmp_path, monkeypatch, command, env, {})
        kind = "an integer of at least 1" if other == "jobs" else "a boolean"
        assert result == (2, "", f"error: MONO_{other.upper()} must be {kind}, got 'maybe'\n")
        result = self.outcome(capsys, tmp_path, monkeypatch, command, {}, {other: 2.5})
        assert result == (2, "", f"error: config key '{other}' must be {kind}, got 2.5\n")
        result = self.outcome(capsys, tmp_path, monkeypatch, command, {}, {})
        assert result == (2, "", "error: p must be prime, got 4\n")
