import json

import pytest

from qkron import cli, dcb, pbw


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_text(capsys):
    code, out, _ = run(["compute", "1", "0", "1", "0"], capsys)
    assert code == 0
    assert out.strip() == "u3*u1 - (q^2)*u2^2"


def test_compute_identity(capsys):
    code, out, _ = run(["compute", "0", "0", "0", "0"], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(["compute", "2", "0", "0", "1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [2, 0, 0, 1]
    elem = pbw.PbwElement.from_json_dict(data["element"])
    assert elem == dcb.b_element((2, 0, 0, 1))


def test_compute_q1_matches_polynomial_form(capsys):
    from qkron import classical

    code, out, _ = run(["compute", "3", "0", "0", "2", "--q1"], capsys)
    assert code == 0
    assert out.strip() == str(classical.polynomial_form(5))


def test_compute_dual_pbw(capsys):
    code, out, _ = run(["compute", "1", "0", "1", "0", "--dual-pbw"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "E[1,0,1,0]: 1" in lines
    assert "E[0,2,0,0]: -q" in lines


def test_compute_malformed_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "1", "0", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "1", "0", "0", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_product_contains_expected_terms(capsys):
    code, out, _ = run(["product", "1", "0", "0", "0", "0", "0", "0", "1"], capsys)
    assert code == 0
    assert "B[1,0,0,1]" in out and "B[0,1,1,0]" in out
    # u3 * u0 = B[1,0,0,1] + q^2 B[0,1,1,0]
    code, out, _ = run(["product", "1", "0", "0", "0", "0", "0", "0", "1",
                        "--format", "json"], capsys)
    data = json.loads(out)
    terms = {tuple(t["c"]): t["coef"] for t in data["terms"]}
    assert terms == {(1, 0, 0, 1): "1", (0, 1, 1, 0): "q^2"}


def test_product_identity(capsys):
    code, out, _ = run(["product", "0", "0", "0", "0", "2", "0", "0", "1"], capsys)
    assert code == 0
    assert out.strip().endswith("B[2,0,0,1]")


def test_product_layer_cap(capsys):
    code, _, err = run(["product", "5", "0", "0", "0", "0", "0", "0", "5"], capsys)
    assert code == 3
    assert "max-layer" in err


def test_product_latex_exits_2(capsys):
    # product renders text and JSON only; latex is not an accepted format
    with pytest.raises(SystemExit) as exc:
        cli.main(["product", "1", "0", "0", "0", "0", "0", "0", "1", "--format", "latex"])
    assert exc.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


def test_verify_bogus_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_recursions(capsys):
    code, out, _ = run(["verify", "recursions", "--n-max", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["suites"][0]["suite"] == "recursions"
    assert all(e["ok"] for e in report["suites"][0]["entries"])


def test_verify_serre_report_schema(capsys):
    code, out, _ = run(["verify", "serre", "--seed", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    entries = report["suites"][0]["entries"]
    assert len(entries) == 6
    assert all(set(e) == {"relation", "weight", "mode", "member"} for e in entries)


def test_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(["verify", "pbw-expansion", "--n-max", "2", "--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["ok"] is True


def test_verify_out_unwritable_exits_2(tmp_path, capsys, monkeypatch):
    def no_suite(*args):
        raise AssertionError("a suite ran before --out was opened")

    # the path is checked before any suite runs
    monkeypatch.setattr(cli, "run_suite", no_suite)
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(["verify", "all", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out_path.parent.exists()


def test_table_cluster(capsys):
    code, out, _ = run(["table", "cluster", "4..4"], capsys)
    assert code == 0
    assert "U3^2*U0 - 2*U3*U2*U1 + U2^3" in out


def test_table_layer(capsys):
    code, out, _ = run(["table", "layer", "2"], capsys)
    assert code == 0
    assert "B[1,0,1,0] = u3*u1 - (q^2)*u2^2" in out


def test_table_empty_range(capsys):
    for kind, text in (("cluster", "6..4"), ("layer", "5..3")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", kind, text])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "empty range" in out.err


def test_table_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "cluster", "x..y"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_table_layer_cap(capsys):
    code, _, err = run(["table", "layer", "9", "--max-layer", "8"], capsys)
    assert code == 3
    assert "max-layer" in err


def test_table_layer_cap_is_checked_before_any_layer(monkeypatch, capsys):
    def refuse(k):
        raise AssertionError(f"layer {k} computed before the cap check")

    monkeypatch.setattr(dcb, "layer_table", refuse)
    code, out, err = run(["table", "layer", "0..9"], capsys)
    assert (code, out, err) == (3, "", "error: layer 9 > --max-layer 8\n")


def test_table_cluster_negative_range(capsys):
    code, out, _ = run(["table", "cluster", "-20..20", "--format", "json"], capsys)
    assert code == 0
    assert [r["n"] for r in json.loads(out)] == list(range(-20, 21))
    code, out, _ = run(["table", "cluster", "--format", "json", "--", "-3..-1"], capsys)
    assert code == 0
    assert [r["n"] for r in json.loads(out)] == [-3, -2, -1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "cluster", "-3..1", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_compute_off_diagonal_core_cap(capsys):
    # the cap applies to the core (7, 0, 0, 2), also when p0 stripping
    # reaches it, and still after the element was computed in this process
    def refused():
        for a in (["7", "0", "0", "2"], ["7", "1", "0", "3"]):
            code, out, err = run(["compute", *a], capsys)
            assert code == 3
            assert out == "" and err.startswith("error: ")

    refused()
    for a in ((7, 0, 0, 2), (7, 1, 0, 3)):
        code, out, _ = run(["compute", *map(str, a), "--max-layer", "9",
                            "--format", "json"], capsys)
        assert code == 0
        elem = pbw.PbwElement.from_json_dict(json.loads(out)["element"])
        dcb.check_basis_conditions(a, elem)
    refused()


def test_verify_jobs_parallel(capsys):
    code, out, _ = run(["verify", "all", "--n-max", "2", "--k-max", "2", "--jobs", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert [s["suite"] for s in report["suites"]] == list(cli.SUITES)


def test_latex_output(capsys):
    code, out, _ = run(["compute", "1", "0", "1", "0", "--format", "latex"], capsys)
    assert code == 0
    assert out.strip() == "u_3u_1-(q^{2})u_2^{2}"


@pytest.mark.parametrize("argv", [["verify", "recursions", "--n-max", "-3"],
                                  ["verify", "layers", "--k-max", "-1"]])
def test_verify_empty_suite_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_verify_jobs_below_one_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute", "0", "1200", "0", "1200"],
    # the recursion through the near-diagonal cores (n,0,0,n), (n,0,0,n-1), (n-1,0,0,n)
    ["compute", "600", "0", "0", "600"],
    ["product", "600", "0", "0", "600", "0", "0", "0", "0", "--max-layer", "5000"],
], ids=["compute-p-stripping", "compute-diagonal-core", "product-diagonal-core"])
def test_compute_deep_stripping_exits_3(argv, capsys):
    import time

    t0 = time.time()
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert time.time() - t0 < 5



def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    """One process serving a sequence of requests prints what a fresh
    interpreter prints for each, and builds the parser once."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    compute = ["compute", "2", "0", "0", "1"]
    # (argv, expected exit code, whether --out <file> is appended)
    sequence = [
        (compute + ["--format", "json"], 0, False),
        (compute, 0, False),
        (["table", "cluster", "-3..1", "--bogus"], 2, False),
        (["table", "cluster", "-3..1"], 0, False),
        (["verify", "recursions"], 0, True),
        (["verify", "recursions"], 0, False),
    ]
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    outputs = []
    for i, (argv, want_code, to_file) in enumerate(sequence):
        here, fresh = tmp_path / f"here-{i}.json", tmp_path / f"fresh-{i}.json"
        try:
            code = cli.main(argv + ["--out", str(here)] if to_file else argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        want = subprocess.run(
            [sys.executable, "-m", "qkron.cli", *argv, *(["--out", str(fresh)] if to_file else [])],
            capture_output=True, text=True, env=env)
        assert code == want.returncode == want_code, argv
        assert (got.out, got.err) == (want.stdout, want.stderr), argv
        if to_file:
            assert here.read_text() == fresh.read_text()
        outputs.append(got.out)
    assert json.loads(outputs[0])["a"] == [2, 0, 0, 1]
    assert outputs[1].strip() == str(dcb.b_element((2, 0, 0, 1)))
    assert outputs[4] == "" and json.loads(outputs[5])["ok"] is True
    assert len(built) == 1
