import hashlib
import json
import os
from importlib import resources

import jsonschema
import pytest

from monogenity.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        schema = load_schema()
        for argv in (
            ["analyze", "--p", "2", "--r", "2", "--m", "17", "--format", "json"],
            ["analyze", "--p", "2", "--r", "2", "--m", "3", "--format", "json"],
            ["analyze", "--p", "5", "--r", "1", "--m", "7", "--format", "json", "--verify"],
            ["analyze", "--p", "3", "--r", "3", "--m", "161", "--format", "json"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            payload = json.loads(out)
            jsonschema.validate(payload, schema)
            # documented serialization round-trips losslessly
            assert json.loads(json.dumps(payload)) == payload

    def test_verify_all_agree(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "2", "--r", "2", "--m", "17",
            "--format", "json", "--verify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]
        assert all(check["agree"] for check in payload["oracle"])

    def test_degree_cap(self, capsys):
        code, _, err = run(capsys, "analyze", "--p", "2", "--r", "13", "--m", "3")
        assert code == 2
        assert "cap" in err


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

    def test_parallel_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["scan", "--p", "2", "--r", "2", "--m-from", "2", "--m-to", "40"]
        assert run(capsys, *base, "--out", str(serial))[0] == 0
        assert run(capsys, *base, "--out", str(parallel), "--jobs", "4")[0] == 0
        assert serial.read_bytes() == parallel.read_bytes()

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
    """sha256 of outputs from before the closed-form engine at t = p, and
    (human text, the p = 7 scan) from before residuals over F_p were
    factored by fppoly.

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
        ],
    )
    def test_analyze_json(self, capsys, p, r, m, digest):
        code, out, _ = run(
            capsys, "analyze", "--p", str(p), "--r", str(r), "--m", str(m), "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

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
        ],
    )
    def test_analyze_human(self, capsys, p, r, m, digest):
        code, out, _ = run(
            capsys, "analyze", "--p", str(p), "--r", str(r), "--m", str(m), "--format", "human"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_csv_prime_field(self, tmp_path, capsys, jobs):
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

    def test_bad_config_rejected(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "mono.json"
        config.write_text("{not json")
        monkeypatch.setenv("MONO_CONFIG", str(config))
        code, _, err = run(capsys, "analyze", "--p", "2", "--r", "2", "--m", "3")
        assert code == 2
        assert "config" in err
