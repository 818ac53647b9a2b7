"""The CLI contract in three tables, and a runner that checks all three.

PINS holds the sha256 of every pinned output, one line per command: analyze
JSON and human text, scan CSV/JSONL and render output change only with a
deliberate change of format.  A pin whose argv holds --out {out} hashes that
file, any other pin its standard output.

ERRORS holds every pinned rejection as (exit code, stderr, argv text).  {tmp}
in the argv and the stderr stands for an empty directory.  A row passes when
the command exits with that code, writes nothing to stdout and exactly that
line to stderr, and leaves the directory empty: no --out file, no .partial.

PROBES holds the checks no output can show, as (id, code): which modules a
command loads, and how a scan's memory grows with its rows.  Each code is a
python -S program on src/, given a temporary directory as sys.argv[1], that
asserts what it checks and passes when it exits 0.

tests/test_cli.py runs each pin and error row in process, and
tests/test_records.py each probe in a fresh process.  `PYTHONPATH=src python
-S tests/pinned_outputs.py` runs every row of the three tables, each in a
fresh python -S process, stdout a pipe.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PINS = (
    # analyze JSON, taken before the closed-form engine at t = p
    ("dbb7c40e17dce20ca86c1e72b6c7dafaf170a2e2964103b661bd8a8b42cd48f9", "analyze --p 2 --r 10 --m 33 --format json"),
    ("044b353e115e61f5c020ef117be2ee75b4a26491948ebf59bc567e2fc5df2ec8", "analyze --p 5 --r 5 --m 7 --format json"),
    ("f4cbfa1ac472f52839b7526f9e70088fef8caac755a35c057c498801258d99ef", "analyze --p 3 --r 3 --m 161 --format json"),
    # taken before the hull was taken over the support points and the point
    # lists were spliced into the JSON
    ("97f613c5ace9dac25d3c59dc6ae8e9bc55c90878ab88598bbcd53b9cbf3a59b3", "analyze --p 2 --r 12 --m 17 --format json"),
    ("2c6dc8980e4616dca01e6b9e4e106c9317a6984190de813bad315d416c5aea1a", "analyze --p 61 --r 2 --m 3 --format json"),
    ("98f18427caae0501dda905e7c2064d11d4e3fcd5d9655adc338c2417f1e3cb32", "analyze --p 7 --r 1 --m 197 --format json"),
    # taken before the points were carried as columns and the certificate
    # polynomial was written in closed form; m < 0 prints as x^n + |m|, and
    # 5 | 10 puts a report at t | m
    ("58b397a26fc87a3a6115e458b93deb74994134ddc26cb33d694178c619a06af6", "analyze --p 3 --r 4 --m -10 --format json"),
    ("50268d9f96eb6d299f0bf85e4d7bf683c3336c2f10837fb08ba7224232fd061d", "analyze --p 2 --r 12 --m -3 --format json"),
    ("29d15f1352b2cb01106aea3c7b9670a446b2ea24ec489d2cee08098fc517f269", "analyze --p 5 --r 2 --m 10 --format json"),
    # taken before the point text was formatted on bytes; odd p: blocks of
    # p - 1 pieces joined level by level
    ("04ef699ad8ffa01943d4dde301580a3a4bd9a30baefa591cb2a352f40dc8352a", "analyze --p 3 --r 7 --m 10 --format json"),
    ("587dcda8c5e928721d076a851f76e0fc1cdaf7beeb6c9bfff3d89196fbf65fe3", "analyze --p 7 --r 4 --m 2 --format json"),
    # taken before the report at t = p was built in closed form; p = 2 at
    # t = p: nu0 = 1 (one side), nu0 = r + 1 (a degree-2 side from (0, 4) to
    # (2, 2)) and nu0 >= r + 2 (first vertex at abscissa 1)
    ("5afa01ea782a9412c8f82384e59fd7d49860a6a97a618e85044fa874123893d7", "analyze --p 2 --r 3 --m 3 --format json"),
    ("4fbb5a89332ffb30a18bc2143a9c95b31368ff6fcdc5e27697f5d45d566255e1", "analyze --p 2 --r 3 --m 17 --format json"),
    ("e49e6e109a37e531040f965f6c148c26f4b4ae71155f0ef90ce3462a79e50d25", "analyze --p 2 --r 3 --m 33 --format json"),
    # taken again when --verify began to check whole columns of valued points
    ("880e169a2667e6566a1860aac8919cd011a60d481bfc9eb33c021135cbf7ba6f", "analyze --p 3 --r 5 --m 10 --format json --verify"),
    # taken when it joined this table: 1009 * 1049 is split by Pollard-Brent
    # rho only after its first batch of steps overshoots, at c = 1
    ("6634222083086ff1b47a224e3878e8b8546c295e130bff29f73cdaa15bdaa4f0", "analyze --p 3 --r 1 --m 1058441 --format json"),
    # human text, taken before residuals over F_p were factored by the F_p[x]
    # module; m = 1 mod 49 at (7, 1, 197): UNDETERMINED
    ("3875835a40575329870bd47e98126155ff3fae0651cc6399f3bd2f776ef1954a", "analyze --p 3 --r 3 --m 161 --format human"),
    ("3286eef80fdadb87a4963ce3291412851a29abc78af7cf93a3404bb2bac71eaa", "analyze --p 7 --r 1 --m 10001 --format human"),
    ("adcceb1fe1d1fed3660483ebb938a59971d1394f8f1aafe3844af627cdb6653c", "analyze --p 7 --r 1 --m 197 --format human"),
    # taken before the hull was taken over the support points
    ("d7fee696db5d1cd4cb4ca17c2b5a39fe77a5e554175b3c1286cf746b4a0e5281", "analyze --p 2 --r 10 --m 33 --format human"),
    # taken before the points were carried as columns
    ("c62c4b54b7b01ccab60b41cd474adb16ad3cb214eaab8fbe98e23d01c2db04e5", "analyze --p 2 --r 12 --m 17 --format human"),
    ("5e89718c2c4b4b68caba482dce95625e681a1d2b99586d9c1605a84c3b4f961f", "analyze --p 61 --r 2 --m 3 --format human"),
    # taken before the point text was formatted on bytes
    ("5343294124c1d4ba62f3f9c548d3eff227e60ce1938a0e925dbfb64b82d97f48", "analyze --p 3 --r 7 --m 10 --format human"),
    ("24569863a5954ca5178d41ae797282bebb13a46fb6708f3d740ab94b31122c47", "analyze --p 5 --r 5 --m 7 --format human"),
    # m < 0: the "note: m < 0" line
    ("29353d034c8fbb9bad48190f87a9f25a78050fe8c59b45c482eb85cd10db276f", "analyze --p 2 --r 3 --m -15 --format human"),
    # taken before the certificate stopped storing what output derives
    ("91387be5d8f594aa1f2fb3e8d4f66b569eb13d94988567d675f4732d002499fe", "analyze --p 3 --r 5 --m 10 --format human --verify"),
    # taken when --verify joined this table: the degree cap, then one field per
    # provenance, THEOREM_PIB, THEOREM_MONO2, COROLLARY_MONO3, THEOREM_NPIBODD
    # (15626 = 1 + 5^6, so nu = 6) and NONE
    ("0bbd4f16d75eb987b9df27caf14a6dd912ddd8d105d128ca208bd10d83cb3915", "analyze --p 2 --r 12 --m 17 --verify"),
    ("0d1380912e7f91208534f45f769b5c6dc41448d52486dee7b55cca98ae6284c9", "analyze --p 7 --r 1 --m 2 --verify"),
    ("488227c81cce5ae62bdb29203717ff8eb99a1a1dc8a4092b21388f6701c31650", "analyze --p 2 --r 2 --m 17 --verify"),
    ("1a8e94118387fc76a00f1289869d2e8ce16d2542f9ad2600a24c791e4b3e8c53", "analyze --p 3 --r 3 --m 161 --verify"),
    ("3d430c1140e9eb2c31f097652fd6dfe34dfe92fb9e118ea6bdbd2f7c7daa7435", "analyze --p 5 --r 5 --m 15626 --verify"),
    ("ee029236c4f675fd8a120ca37f61f7cea4711ed4ab8c9a395e8964f3fb9f5943", "analyze --p 2 --r 4 --m 17 --verify"),
    # scan CSV, taken before the closed-form engine at t = p; JSONL, taken
    # before the certificate stopped storing the fields that output derives
    ("cda8cdc5f34c3f50d8611d8d92989a3d6af9710de7bce585bd4893375c327c42", "scan --p 2 --r 8 --m-from 1000 --m-to 1199 --out {out}"),
    ("6de12104b99c1ffcab961bf49a3e01e45f1af1dc3dbdac1ea1bcc86284f855ca", "scan --p 2 --r 8 --m-from 1000 --m-to 1199 --format jsonl --out {out}"),
    # taken when the pool scan joined this table: 4096 rows, four times the
    # rows per worker (cli._ROWS_PER_WORKER), so --jobs 2 starts two workers;
    # one digest for both says the pool writes what one process writes
    *(("57147e22af1879d2e196b0ee9d0a8eb83dab487905c2c635fb2d44a2cabeee35", f"scan --p 2 --r 8 --m-from 2 --m-to 4097 --jobs {jobs} --out {{out}}") for jobs in (1, 2)),
    # render, taken before the side labels were written by Side.slope_text;
    # 3 | 6 at (2, 2, 6): the one Eisenstein side at a prime of m
    ("79704aea0cb015937fb4b7a68ebdf17da6d9ef188d8a98de265d31e8674cc4ae", "render --p 3 --r 3 --m 161 --at 3 --format ascii --out {out}"),
    ("e2ad9554ce6ddd34f7ce2f72e8910bd534c53e1aed52dbf9e0638cdb7ea87a94", "render --p 3 --r 3 --m 161 --at 3 --format svg --out {out}"),
    ("37fab3d160c2619fb8a9eb72241a62e1dc41809b03d33c99f9726255ded39904", "render --p 2 --r 12 --m 17 --at 2 --format ascii --out {out}"),
    ("de25453815080624031fd1de1aed4bcb9eee1bf0ff5d2f099eaa388d5018c7e7", "render --p 2 --r 12 --m 17 --at 2 --format svg --out {out}"),
    ("861f8d1a3ecb5add1378d9182977ea94ca239d4c70d19955275bc944af3dce10", "render --p 2 --r 2 --m 6 --at 3 --format ascii --out {out}"),
    ("019dafc4adc5a513027f697ad794f9a1ce050e9577b2f2d47deb31f0c8eb79a6", "render --p 2 --r 2 --m 6 --at 3 --format svg --out {out}"),
)

ERRORS = (
    # a scan into a missing directory fails before it writes anything, and each
    # i/o error names the --out path, not the partial file
    (3, "i/o error: [Errno 2] No such file or directory: '{tmp}/missing/rows.csv'", "scan --p 2 --r 1 --m-from 2 --m-to 10 --out {tmp}/missing/rows.csv"),
    # the --out file is opened before any row is built, so a bad path fails
    # with exit 3 even where the first row would fail: this m is past the
    # primality limit
    (3, "i/o error: [Errno 2] No such file or directory: '{tmp}/missing/rows.csv'", f"scan --p 3 --r 1 --m-from {10**30 + 57} --m-to {10**30 + 57} --out {{tmp}}/missing/rows.csv"),
    (3, "i/o error: [Errno 2] No such file or directory: '/nonexistent-dir/x.csv'", "scan --p 2 --r 1 --m-from 2 --m-to 3 --out /nonexistent-dir/x.csv"),
    (3, "i/o error: [Errno 2] No such file or directory: '/nonexistent-dir/fig.svg'", "render --p 2 --r 2 --m 3 --at 3 --out /nonexistent-dir/fig.svg"),
    (2, "error: m must be squarefree, got 80", "analyze --p 2 --r 2 --m 80"),
    (2, "error: degree p**r = 8192 exceeds the CLI cap of 4096", "analyze --p 2 --r 13 --m 3"),
    # the degree cap is checked before p, then p before r, by every command
    *(
        (2, f"error: {message}", f"{command} {pr} {tail}")
        for pr, message in (
            ("--p 4 --r 7", "degree p**r = 16384 exceeds the CLI cap of 4096"),
            (f"--p {10**26} --r 1", f"degree p**r = {10**26} exceeds the CLI cap of 4096"),
            ("--p 4 --r 1", "p must be prime, got 4"),
            ("--p 3 --r 0", "r must be a positive integer, got 0"),
            ("--p 1 --r 5", "p must be prime, got 1"),
        )
        for command, tail in (
            ("analyze", "--m 2"),
            ("scan", "--m-from 2 --m-to 9 --out {tmp}/out.txt"),
            ("render", "--m 2 --at 2 --out {tmp}/out.txt"),
        )
    ),
    (2, "error: --residue and --modulus must be given together", "scan --p 3 --r 1 --m-from 2 --m-to 9 --residue 1 --out {tmp}/rows.csv"),
    (2, "error: --residue and --modulus must be given together", "scan --p 3 --r 1 --m-from 2 --m-to 9 --modulus 3 --out {tmp}/rows.csv"),
    (2, "error: --modulus must be positive", "scan --p 3 --r 1 --m-from 2 --m-to 9 --residue 1 --modulus 0 --out {tmp}/rows.csv"),
    (2, "error: --m-from must not exceed --m-to", "scan --p 2 --r 1 --m-from 5 --m-to 3 --out {tmp}/rows.csv"),
    # 7 divides neither 3 nor 10; 4, 0, 1 and -3 are not prime, and say so
    # first: each message is pure_prime_analysis's, as in the library
    (2, "error: 7 divides neither p nor m, so it cannot divide the index", "render --p 3 --r 1 --m 10 --at 7 --out {tmp}/fig.txt"),
    (2, "error: 4 is not prime", "render --p 3 --r 1 --m 10 --at 4 --out {tmp}/fig.txt"),
    (2, "error: 0 is not prime", "render --p 3 --r 1 --m 10 --at 0 --out {tmp}/fig.txt"),
    (2, "error: 1 is not prime", "render --p 3 --r 1 --m 10 --at 1 --out {tmp}/fig.txt"),
    (2, "error: -3 is not prime", "render --p 3 --r 1 --m 10 --at -3 --out {tmp}/fig.txt"),
)

# Loaded by analyze, --verify, render, scan, Side.slope, a Cantor-Zassenhaus
# split or a polynomial outside the pure family only, never by a load of the
# CLI: each would be built or compiled on every command.
NOT_LOADED = (
    "monogenity.output",
    "monogenity.oracle",
    "monogenity.render",
    "monogenity.ore",
    "dataclasses",
    "fractions",
    "csv",
    "typing",
    "random",
)

# the pinned scan that the pure path must write with no hull pipeline
_SCAN = "scan --p 2 --r 8 --m-from 1000 --m-to 1199 --out {out}"
_SCAN_DIGEST = dict(map(reversed, PINS))[_SCAN]

PROBES = tuple((name, textwrap.dedent(code)) for name, code in (
    ("cli_import_loads_only_what_analyze_runs", f"""
        import sys
        import monogenity.cli
        loaded = set({NOT_LOADED!r}) & set(sys.modules)
        assert not loaded, sorted(loaded)
    """),
    ("analyze_and_scan_never_load_the_general_engine", """
        import contextlib, io, os, sys
        from monogenity.cli import main
        out = os.path.join(sys.argv[1], "scan")
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("json", "human"):
                for p, r, m in ((2, 12, 17), (61, 2, 3), (3, 2, 10), (2, 3, -15)):
                    code = main(["analyze", "--p", str(p), "--r", str(r), "--m", str(m),
                                 "--format", fmt])
                    assert code == 0, (p, r, m, fmt)
            for fmt in ("csv", "jsonl"):
                for p, r in ((7, 1), (2, 8), (3, 2), (5, 1)):
                    code = main(["scan", "--p", str(p), "--r", str(r), "--m-from", "-60",
                                 "--m-to", "60", "--format", fmt, "--out", out])
                    assert code == 0, (p, r, fmt)
        loaded = set(("monogenity.ore", "typing", "random")) & set(sys.modules)
        assert not loaded, sorted(loaded)
        from monogenity.residue import residue_field
        residue_field(7, (3, 1))
        assert "monogenity.ore" not in sys.modules
        residue_field(3, (1, 0, 1))
        assert "monogenity.ore" in sys.modules
    """),
    # the layers below the engine only: no classify, cli, output or render
    ("engine_loads_nothing_above_its_layers", """
        import sys
        import monogenity.ore
        loaded = set(n for n in sys.modules if n.startswith("monogenity."))
        assert loaded == set("monogenity." + m for m in (
            "errors", "intarith", "ore", "polygon", "record", "residue", "zpoly"
        )), sorted(loaded)
    """),
    # the pure layer, the drawing and the lattice points it draws
    # (monogenity.oracle), with no engine (monogenity.ore)
    ("render_loads_no_engine", """
        import contextlib, io, os, sys
        from monogenity.cli import main
        out = os.path.join(sys.argv[1], "figure")
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("ascii", "svg"):
                for p, r, m, at in ((3, 3, 161, 3), (2, 12, 17, 2), (2, 2, 6, 3)):
                    code = main(["render", "--p", str(p), "--r", str(r), "--m", str(m),
                                 "--at", str(at), "--format", fmt, "--out", out])
                    assert code == 0, (p, r, m, at, fmt)
        loaded = set(n for n in sys.modules if n.startswith("monogenity."))
        assert loaded == set("monogenity." + m for m in (
            "classify", "cli", "errors", "intarith", "oracle", "polygon", "record", "render",
            "residue", "zpoly",
        )), sorted(loaded)
    """),
    ("package_import_loads_no_submodule", """
        import sys
        import monogenity
        def submodules():
            return sorted(n for n in sys.modules if n.startswith("monogenity."))
        assert not submodules(), submodules()
        missing = set(monogenity.__all__) - set(dir(monogenity))
        assert not missing, sorted(missing)
        assert not submodules(), submodules()
    """),
    # each name loads its module on first use, and is defined there: a stale
    # _HOMES entry, or a name a home module reaches only through a hook, fails
    ("every_exported_name_is_at_home", """
        import sys
        import monogenity
        monogenity.ValidationError
        loaded = sorted(n for n in sys.modules if n.startswith("monogenity."))
        assert loaded == ["monogenity.errors"], loaded
        for name in monogenity.__all__:
            if name != "__version__":
                value = getattr(monogenity, name)
                home = vars(sys.modules["monogenity." + monogenity._HOMES[name]])
                assert name in home and home[name] is value, name
                module = getattr(value, "__module__", None)
                if module and module.startswith("monogenity."):
                    assert getattr(sys.modules[module], name) is value, name
        import monogenity.classify
        assert callable(monogenity.classify), monogenity.classify
        assert monogenity.classify.__module__ == "monogenity.classify"
    """),
    # a scan loads no part of analyze's output layer and no engine; analyze and
    # render after it load no engine either, though render loads oracle for
    # the lattice points it draws
    ("scan_loads_no_analyze_output_or_engine", f"""
        import contextlib, hashlib, io, os, sys
        from monogenity.cli import main
        out = os.path.join(sys.argv[1], "out")
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("csv", "jsonl"):
                for p, r in ((7, 1), (2, 8), (3, 2)):
                    code = main(["scan", "--p", str(p), "--r", str(r), "--m-from", "-60",
                                 "--m-to", "60", "--format", fmt, "--out", out])
                    assert code == 0, (p, r, fmt)
            assert main({_SCAN.split()[:-1]!r} + [out]) == 0
        refused = ("monogenity.output", "monogenity.oracle", "monogenity.render", "monogenity.ore")
        loaded = set(refused) & set(sys.modules)
        assert not loaded, sorted(loaded)
        with open(out, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == {_SCAN_DIGEST!r}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", "--p", "3", "--r", "3", "--m", "161", "--format", "json"]) == 0
            assert main(["render", "--p", "2", "--r", "12", "--m", "17", "--at", "2", "--out", out]) == 0
        assert "monogenity.oracle" in sys.modules
        assert "monogenity.ore" not in sys.modules
    """),
    ("lazy_modules_still_load", """
        import sys
        from monogenity import Side, ValuedPoint, oracle, render
        assert str(Side(ValuedPoint(0, 2), ValuedPoint(4, 0)).slope) == "-1/2"
        assert "fractions" in sys.modules
    """),
    # the hull, the dense residuals, the residual factorization and the generic
    # report raise if called: the pure path reads every report off its closed
    # forms, so the pinned scan keeps its digest and analyze still exits 0;
    # each name must exist in the engine, or the stub would only add an
    # attribute that nothing calls
    ("scan_and_analyze_run_no_hull_pipeline", f"""
        import contextlib, hashlib, io, os, sys
        from monogenity import cli, ore
        def refuse(*args):
            raise AssertionError("the hull pipeline ran")
        for name in ("lower_convex_hull", "residual_polynomial", "ff_factor", "_phi_report"):
            assert callable(vars(ore).get(name)), name
            setattr(ore, name, refuse)
        out = os.path.join(sys.argv[1], "rows.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({_SCAN.split()[:-1]!r} + [out]) == 0
            assert cli.main(["analyze", "--p", "3", "--r", "3", "--m", "161", "--format", "json"]) == 0
        with open(out, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == {_SCAN_DIGEST!r}
    """),
    # a scan holds no row past its write: after a warm-up, a 2,500-row scan's
    # tracemalloc peak is within 512 KiB of a 500-row scan's, in CSV and in
    # JSONL (a scan that held every row grew by 1.3 and 2.2 MiB)
    ("scan_memory_is_flat_in_the_row_count", """
        import contextlib, io, os, sys, tracemalloc
        from monogenity.cli import main
        out = os.path.join(sys.argv[1], "rows")
        def peak(rows, fmt):
            argv = ["scan", "--p", "7", "--r", "1", "--m-from", "10000",
                    "--m-to", str(10000 + rows - 1), "--format", fmt, "--out", out]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(500, "csv")
        for fmt in ("csv", "jsonl"):
            small, large = peak(500, fmt), peak(2500, fmt)
            assert large - small <= 512 * 1024, (fmt, small, large)
    """),
))

# seconds each row may run; the slowest, the scan memory probe, takes about 3 s
TIMEOUT_S = 60


def argv_of(text, out):
    """The argument list of a pin, with out in place of {out}."""
    return [str(out) if word == "{out}" else word for word in text.split()]


def fill(text, tmp):
    """An ERRORS argv or stderr with the directory tmp in place of {tmp}."""
    return text.replace("{tmp}", str(tmp))


def _python(*args):
    """Run python -S with args on src/, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, capture_output=True, timeout=TIMEOUT_S
    )


def pin_problem(digest, text, tmp):
    """What is wrong with one pin run in a fresh process, or None."""
    out = tmp / "out"
    done = _python("-m", "monogenity", *argv_of(text, out))
    if done.returncode:
        return f"exit {done.returncode}"
    data = out.read_bytes() if "{out}" in text else done.stdout
    got = hashlib.sha256(data).hexdigest()
    return None if got == digest else f"sha256 {got}"


def error_problem(code, stderr, text, tmp):
    """What is wrong with one error row run in a fresh process in the empty tmp, or None."""
    done = _python("-m", "monogenity", *fill(text, tmp).split())
    got = (done.returncode, done.stdout, done.stderr)
    if got != (code, b"", f"{fill(stderr, tmp)}\n".encode()):
        return f"exit {done.returncode}, stdout {done.stdout!r}, stderr {done.stderr!r}"
    left = sorted(path.name for path in tmp.iterdir())
    return f"left {left}" if left else None


def probe_problem(name, code, tmp):
    """What is wrong with one probe run in a fresh process, or None."""
    done = _python("-c", code, str(tmp))
    if done.returncode == 0:
        return None
    lines = done.stderr.decode(errors="replace").splitlines() or [""]
    return f"exit {done.returncode}, {lines[-1]}"


# each table, how its rows are checked and the place of the row's name
TABLES = (
    ("pinned outputs match", PINS, pin_problem, 1),
    ("error pins match", ERRORS, error_problem, 2),
    ("probes pass", PROBES, probe_problem, 0),
)


def main():
    """Check every row of the three tables, each in a fresh empty directory;
    print one line per failure and a count per table, and return 1 on any."""
    counts, failed = [], 0
    for what, table, problem, name in TABLES:
        passed = 0
        for row in table:
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    wrong = problem(*row, Path(tmp))
                except subprocess.TimeoutExpired:
                    wrong = f"no exit within {TIMEOUT_S} s"
            if wrong:
                print(f"{wrong}: {row[name]}")
            else:
                passed += 1
        failed += len(table) - passed
        counts.append(f"{passed} of {len(table)} {what}")
    print(*counts, sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
