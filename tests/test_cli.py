import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from qkron import classical, cli, dcb, pbw

_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


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


def test_cluster_work_is_the_sum_of_cubes():
    for lo in range(-12, 12):
        for hi in range(lo, 14):
            assert cli._cluster_work(lo, hi) == sum(max(n, 3 - n) ** 3 for n in range(lo, hi + 1))


def _widest_cluster_range():
    """The longest range 1..hi whose work is within the limit."""
    hi = 1
    while cli._cluster_work(1, hi + 1) <= cli._CLUSTER_LIMIT ** 3:
        hi += 1
    return hi


def test_table_cluster_within_its_limit_is_answered(monkeypatch, capsys):
    # the limit row, its mirror 3 - limit, the widest range 1..hi and every
    # range the benchmark sends (|n| <= 11) pass the check
    limit, hi = cli._CLUSTER_LIMIT, _widest_cluster_range()
    built = []
    monkeypatch.setattr(classical, "cluster_variable", lambda n: built.append(n) or classical.U1)
    monkeypatch.setattr(classical, "polynomial_form", lambda n: classical.U2)
    for text, rows in ((str(limit), [limit]), (str(3 - limit), [3 - limit]),
                       (f"1..{hi}", list(range(1, hi + 1))), ("-11..11", list(range(-11, 12)))):
        built.clear()
        code, out, err = run(["table", "cluster", "--", text], capsys)
        assert (code, err, built) == (0, "", rows), text
        assert out.count("(polynomial) = U2") == len(rows)


@pytest.mark.parametrize("past", [lambda limit, hi: str(limit + 1),
                                  lambda limit, hi: str(3 - (limit + 1)),
                                  lambda limit, hi: f"1..{hi + 1}",
                                  lambda limit, hi: "-1000000000..1000000000"],
                         ids=["limit-plus-1", "mirror", "widest-range-plus-1", "huge-range"])
def test_table_cluster_past_its_limit_exits_3_before_any_row(past, monkeypatch, capsys):
    limit = cli._CLUSTER_LIMIT
    text = past(limit, _widest_cluster_range())

    def refuse(n):
        raise AssertionError(f"row {n} built before the limit check")

    monkeypatch.setattr(classical, "cluster_variable", refuse)
    monkeypatch.setattr(classical, "polynomial_form", refuse)
    code, out, err = run(["table", "cluster", "--", text], capsys)
    lo, hi = cli._parse_range(text, None)
    assert (code, out) == (3, "")
    assert err == (f"error: table cluster {lo}..{hi} exceeds the limit: the sum of "
                   f"max(n, 3-n)^3 over its rows is past {limit}^3\n")


@pytest.mark.parametrize("argv", [
    ["compute", "1", "0", "0", "0", "--max-layer", "-5"],
    ["product", "1", "0", "0", "0", "0", "0", "0", "1", "--max-layer", "-1"],
    ["table", "layer", "0", "--max-layer", "-1"],
    ["table", "cluster", "1", "--max-layer", "-1"],
])
def test_negative_max_layer_exits_2_before_any_work(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the usage check")

    for attr in ("b_element", "b_product", "layer_table", "_core"):
        monkeypatch.setattr(dcb, attr, refuse)
    monkeypatch.setattr(classical, "cluster_variable", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip().splitlines()[-1] == f"qkron {argv[0]}: error: --max-layer must be at least 0"


@pytest.mark.parametrize("argv, message", [
    (["compute", "-1", "0", "0", "0"], "exponents must be non-negative"),
    (["product", "0", "0", "0", "-1", "0", "0", "0", "0"], "exponents must be non-negative"),
    (["table", "layer", "x"], "bad range 'x'; expected N or N..M"),
    (["table", "cluster"], "expected one range, N or N..M"),
    (["compute", "1", "0", "0", "0", "--max-layer", "-2"], "--max-layer must be at least 0"),
])
def test_usage_errors_name_their_subcommand(argv, message, capsys):
    # a usage error that main finds prints the usage and prefix of the named
    # command, as argparse's own error for that command (a bad --format) does
    errs = []
    for args in (argv, [argv[0], "--format", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        errs.append(out.err.splitlines())
    ours, theirs = errs
    assert ours[0].startswith(f"usage: qkron {argv[0]} [-h]")
    assert ours[:-1] == theirs[:-1]
    assert ours[-1] == f"qkron {argv[0]}: error: {message}"
    assert theirs[-1].startswith(f"qkron {argv[0]}: error: argument --format")


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


def test_refused_compute_builds_nothing(monkeypatch, capsys):
    # the cap is checked on the stripped core before any b_element call
    monkeypatch.setattr(dcb, "_B_CACHE", {})
    code, out, err = run(["compute", "7", "1", "0", "3"], capsys)
    assert (code, out, err) == (3, "", "error: layer 9 exceeds cap 8\n")
    assert dcb._B_CACHE == {}
    # a stripping exactly as deep as the recursion limit, split between p0 and p1
    depth = sys.getrecursionlimit()
    r, s = depth // 2, depth - depth // 2
    code, out, err = run(["compute", str(s), str(r), str(s), str(r)], capsys)
    assert (code, out, err) == (3, "", f"error: p0/p1 stripping deeper than {depth} steps\n")
    assert dcb._B_CACHE == {}


# the bounds each suite's runner reads ("n" for --n-max, "k" for --k-max)
_READS = {"straightening": "", "serre": "", "layers": "k", "recursions": "n", "products": "n",
          "closed-formulas": "nk", "pbw-expansion": "n", "classical": "n", "qseed": "n"}
# flags -> the read bounds each suite is handed, in "nk" order
_BOUNDS = {
    (): {"layers": (6,), "recursions": (6,), "products": (5,), "closed-formulas": (4, 6),
         "pbw-expansion": (3,), "classical": (10,), "qseed": (5,)},
    ("--n-max", "2"): {"layers": (6,), "recursions": (2,), "products": (2,),
                       "closed-formulas": (2, 6), "pbw-expansion": (2,), "classical": (2,),
                       "qseed": (2,)},
    ("--k-max", "3"): {"layers": (3,), "recursions": (6,), "products": (5,),
                       "closed-formulas": (4, 3), "pbw-expansion": (3,), "classical": (10,),
                       "qseed": (5,)},
    ("--n-max", "2", "--k-max", "3"): {"layers": (3,), "recursions": (2,), "products": (2,),
                                       "closed-formulas": (2, 3), "pbw-expansion": (2,),
                                       "classical": (2,), "qseed": (2,)},
}


@pytest.mark.parametrize("flags", list(_BOUNDS))
def test_verify_hands_each_suite_its_bounds(flags, monkeypatch, capsys):
    seen = {}

    def recorder(name):
        def runner(n, k, seed, mode):
            seen[name] = tuple(v for v, b in zip((n, k), "nk") if b in _READS[name])
            return [{"ok": True}]
        return runner

    for name, (defaults, _) in cli._SUITE_TABLE.items():
        monkeypatch.setitem(cli._SUITE_TABLE, name, (defaults, recorder(name)))
    code, _, _ = run(["verify", "all", *flags], capsys)
    assert code == 0
    want = {name: _BOUNDS[flags].get(name, ()) for name in cli.SUITES}
    assert seen == want


@pytest.mark.parametrize("argv, attr", [(["verify", "recursions"], "verify_recursions"),
                                        (["table", "layer", "3"], "layer_table")])
def test_recursion_depth_exits_3_from_any_command(argv, attr, monkeypatch, capsys):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(dcb, attr, too_deep)
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: maximum recursion depth exceeded"]


def test_out_of_memory_exits_3(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(dcb, "b_element", no_memory)
    code, out, err = run(["compute", "1", "0", "1", "0"], capsys)
    assert (code, out, err) == (3, "", "error: out of memory\n")


_LONG = str(10 ** 2200)


# each answer would hold a number longer than the interpreter writes as text:
# E[a] carries q^(b(a)), b(a) of more than 4300 digits; the layers report
# names seed + 1; the product's cluster-monomial branch repeats a tuple
# 10^2200 times
@pytest.mark.parametrize("argv", [
    *(["compute", _LONG, "0", "0", "0", "--format", f] for f in ("text", "json", "latex")),
    *(["compute", "0", "0", "0", _LONG, "--format", f] for f in ("text", "json", "latex")),
    ["verify", "layers", "--seed", "9" * 4300],
    ["verify", "all", "--seed", "-" + "9" * 4300],
    ["product", "0", "0", "0", _LONG, "1", "0", "0", "0", "--max-layer", "1" + _LONG]])
def test_answer_past_the_digit_limit_exits_3_before_any_work(argv, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("built past the digit limit")

    for attr in ("b_element", "b_product", "verify_layers"):
        monkeypatch.setattr(dcb, attr, no_work)
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_answer_within_the_digit_limit_is_written(capsys):
    # 4 total^2 = 4 10^4298 is within the limit, and E[n,0,0,0] carries
    # q^(n(n-1)/2), 4298 digits
    n = 10 ** 2149
    code, out, _ = run(["compute", str(n), "0", "0", "0"], capsys)
    assert (code, out) == (0, f"(q^{n * (n - 1) // 2})*u3^{n}\n")


def test_index_too_large_for_the_interpreter_exits_3(capsys):
    # the cluster-monomial branch of b_element repeats a tuple 10^30 times
    n = str(10 ** 30)
    code, out, err = run(["product", "0", "0", "0", n, "1", "0", "0", "0", "--max-layer", n + "0"],
                         capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: cannot fit 'int' into an index-sized integer"]


def test_latex_output(capsys):
    code, out, _ = run(["compute", "1", "0", "1", "0", "--format", "latex"], capsys)
    assert code == 0
    assert out.strip() == "u_3u_1-(q^{2})u_2^{2}"


def test_dual_pbw_latex_prints_latex_coefficients(capsys):
    code, out, _ = run(["compute", "1", "0", "0", "1", "--dual-pbw", "--format", "latex"],
                       capsys)
    assert code == 0
    assert out == "E[1,0,0,1]: 1\nE[0,1,1,0]: -q^{2}\n"
    # the text table is the same table with the text coefficients
    code, out, _ = run(["compute", "1", "0", "0", "1", "--dual-pbw"], capsys)
    assert out == "E[1,0,0,1]: 1\nE[0,1,1,0]: -q^2\n"


def _json_answer(argv, capsys):
    """The JSON answer to argv, after checking that it is byte for byte
    `json.dumps` of itself plus a newline."""
    code, out, err = run([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert out == json.dumps(data) + "\n"
    return out, data


def _coefs(listing):
    return [t["coef"] for t in listing]


_SMALL = [a for k in range(3) for a in dcb.layer_exponents(k)]
_COMPUTE_SWEEP = ([a for k in range(5) for a in dcb.layer_exponents(k)]
                  + [(n, 0, 0, n + d) for n in range(7) for d in (-1, 1) if n + d >= 0])


def test_json_answers_are_json_dumps_of_their_dict_form(monkeypatch, capsys):
    # every JSON answer is written by format strings around pbw.json_terms;
    # json.dumps of the dict form built from to_json_dict is its oracle
    coefs, lengths = [], []
    for a in _COMPUTE_SWEEP:
        elem = dcb.b_element(a)
        for flags in ([], ["--dual-pbw"], ["--q1"], ["--dual-pbw", "--q1"]):
            out, data = _json_answer(["compute", *map(str, a), *flags], capsys)
            want = {}
            if "--dual-pbw" in flags:
                dual = pbw.PbwElement(dcb.expand_in_dual_pbw(elem))
                want["dual_pbw"] = dual.to_json_dict()["terms"]
            if "--q1" in flags:
                want["q1"] = str(elem.specialize_q1())
            want.update(a=list(a), element=elem.to_json_dict())
            assert out == json.dumps(want) + "\n"
            coefs += _coefs(data["element"]["terms"]) + _coefs(data.get("dual_pbw", []))
    for a in _SMALL:
        for b in _SMALL:
            _, data = _json_answer(["product", *map(str, a), *map(str, b)], capsys)
            assert (data["a"], data["b"]) == (list(a), list(b))
            coefs += _coefs(data["terms"])
            lengths.append(len(data["terms"]))
    for k in [*map(str, range(5)), "0..4"]:
        out, _ = _json_answer(["table", "layer", k], capsys)
        lo, _, hi = k.partition("..")
        want = [{"a": list(a), "element": e.to_json_dict()}
                for j in range(int(lo), int(hi or lo) + 1)
                for a, e in sorted(dcb.layer_table(j).entries.items(), reverse=True)]
        assert out == json.dumps(want) + "\n"
    _, data = _json_answer(["table", "cluster", "-10..10"], capsys)
    assert [(r["n"], r["polynomial"]) for r in data] == [
        (n, str(classical.polynomial_form(n))) for n in range(-10, 11)]
    # an empty listing: a product that expanded to nothing
    monkeypatch.setattr(dcb, "b_product", lambda a, b: {})
    _, data = _json_answer(["product", "1", "0", "0", "0", "0", "0", "0", "1"], capsys)
    lengths.append(len(data["terms"]))
    assert pbw.json_terms({}, "exp") == json.dumps([])
    # the sweep writes a coefficient of 1, a negative one and an empty listing
    assert "1" in coefs and any(c.startswith("-") for c in coefs) and 0 in lengths


@pytest.mark.parametrize("argv", [["verify", "recursions", "--n-max", "-3"],
                                  ["verify", "layers", "--k-max", "-1"]])
def test_verify_empty_suite_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag", ["--n-max", "--k-max"])
@pytest.mark.parametrize("suite", cli.SUITES + ("all",))
def test_verify_negative_bound_exits_2_before_any_suite(suite, flag, monkeypatch, capsys):
    def fail(name, params):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(cli, "run_suite", fail)
    code, out, err = run(["verify", suite, flag, "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_verify_jobs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
@pytest.mark.parametrize("suite", [s for s in cli.SUITES if s != "serre"])
def test_verify_mode_on_a_suite_without_modes_exits_2(suite, mode, monkeypatch, capsys):
    def fail(name, params):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(cli, "run_suite", fail)
    code, out, err = run(["verify", suite, "--mode", mode], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("suite, flag", [
    (name, flag) for name, (defaults, _) in cli._SUITE_TABLE.items()
    for flag, key in (("--n-max", "n_max"), ("--k-max", "k_max")) if key not in defaults])
def test_verify_bound_a_suite_does_not_read_exits_2(suite, flag, monkeypatch, capsys):
    def fail(name, params):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(cli, "run_suite", fail)
    code, out, err = run(["verify", suite, flag, "3"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: the {suite} suite reads no {flag}\n"


_LIMITED = [(name, flag, key) for name, (bounds, _) in cli._SUITE_TABLE.items()
            for flag, key in (("--n-max", "n_max"), ("--k-max", "k_max")) if key in bounds]


@pytest.mark.parametrize("suite, flag, key", _LIMITED)
def test_verify_past_a_suite_limit_exits_3_before_any_suite(suite, flag, key, monkeypatch,
                                                            capsys):
    ran = []

    def record(name, params):
        ran.append(name)
        return {"suite": name, "ok": True, "entries": [{"ok": True}]}

    monkeypatch.setattr(cli, "run_suite", record)
    limit = cli._SUITE_TABLE[suite][0][key][1]
    code, out, err = run(["verify", suite, flag, str(limit + 1)], capsys)
    assert (code, out, ran) == (3, "", [])
    assert err == f"error: {flag} {limit + 1} exceeds the {suite} suite's limit {limit}\n"
    # the limit itself is run
    code, _, _ = run(["verify", suite, flag, str(limit)], capsys)
    assert (code, ran) == (0, [suite])


@pytest.mark.parametrize("flag, key", [("--n-max", "n_max"), ("--k-max", "k_max")])
def test_verify_all_applies_each_suite_its_own_limit(flag, key, monkeypatch, capsys):
    def fail(name, params):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(cli, "run_suite", fail)
    limits = [(bounds[key][1], name) for name, (bounds, _) in cli._SUITE_TABLE.items()
              if key in bounds]
    limit, name = min(limits)
    code, out, err = run(["verify", "all", flag, str(limit + 1)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {flag} {limit + 1} exceeds the {name} suite's limit {limit}\n"


# with stdout block-buffered, all but layer 8 fit in the buffer and fail at main's
# flush; layer 8 fails in a print
@pytest.mark.parametrize("argv", [["compute", "1", "0", "1", "0"],
                                  ["verify", "products", "--n-max", "1"],
                                  ["table", "layer", "6"], ["table", "layer", "8"]])
def test_closed_stdout_exits_141_silently(argv):
    env = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qkron.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_cli_import_loads_no_worker_pool_or_dataclasses():
    probe = ("import sys, qkron.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing', 'dataclasses'} "
             "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_ENV, check=True)
    assert proc.stdout == "[]\n"


def test_only_verify_loads_free_serre_and_qseed():
    probe = "\n".join([
        "import contextlib, io, sys",
        "import qkron.cli as cli",
        "def loaded():",
        "    return sorted({'qkron.free_serre', 'qkron.qseed'} & set(sys.modules))",
        "seen = []",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['compute', '2', '0', '0', '1', '--q1'],",
        "                 ['product', '1', '0', '0', '0', '0', '0', '0', '1', '--format', 'json'],",
        "                 ['table', 'cluster', '1..3'], ['table', 'layer', '3'],",
        "                 ['verify', 'serre'], ['verify', 'qseed']):",
        "        assert cli.main(argv) == 0, argv",
        "        seen.append(loaded())",
        "print(seen)",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_ENV, check=True)
    assert proc.stdout == (str([[]] * 4 + [["qkron.free_serre"]]
                               + [["qkron.free_serre", "qkron.qseed"]]) + "\n")
    # the runner's relative import, under -m as well
    proc = subprocess.run([sys.executable, "-m", "qkron.cli", "verify", "serre"],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True


def test_deferred_suites_call_checks_rebound_on_their_modules(monkeypatch, capsys):
    from qkron import free_serre, qseed
    from qkron.qarith import entry

    serre_fail = {"relation": "rebound", "weight": [1, 1], "mode": "exact", "member": False}
    qseed_fail = entry("qseed", 3, "rebound", False)
    monkeypatch.setattr(free_serre, "verify_straightening_mod_serre",
                        lambda mode=None, seed=0: [serre_fail])
    monkeypatch.setattr(qseed, "verify_bz_exchange", lambda n_max: [qseed_fail])
    for suite, fail in (("serre", serre_fail), ("qseed", qseed_fail)):
        code, out, _ = run(["verify", suite], capsys)
        assert code == 1
        entries = json.loads(out)["suites"][0]["entries"]
        assert [e for e in entries if not e.get("ok", e.get("member"))] == [fail]


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



@pytest.mark.parametrize("argv, want", [
    (["product", "0", "0", "0", "1200", "1", "0", "0", "0", "--max-layer", "2000"],
     "B[0,0,0,1200]*B[1,0,0,0] = (q^-2400)*B[1,0,0,1200] + (q^-3599 + q^-3601)*B[0,1,1,1199]"
     " + (q^-4800)*B[0,0,3,1198]"),
    (["compute", "1", "0", "0", "1200", "--max-layer", "2000"],
     "(q^719400)*u3*u0^1200 - (q^719402 + q^719400)*u2*u1*u0^1199 + (q^719404)*u1^3*u0^1198"),
], ids=["product", "compute"])
def test_u0_power_past_u3_answers_in_three_terms(argv, want, capsys):
    import time

    t0 = time.time()
    assert run(argv, capsys) == (0, want + "\n", "")
    assert time.time() - t0 < 2


@pytest.mark.parametrize("argv, want", [
    (["product", "0", "30", "0", "30", "30", "0", "30", "0", "--max-layer", "200"],
     "B[0,30,0,30]*B[30,0,30,0] = (q^-5400)*B[30,30,30,30]"),
    (["product", "507", "0", "500", "2", "0", "0", "0", "0", "--max-layer", "2000"],
     "B[507,0,500,2]*B[0,0,0,0] = B[507,0,500,2]"),
], ids=["p1-p0-powers", "p1-power"])
def test_product_of_p_powers_answers_through_the_cores(argv, want, capsys):
    import time

    t0 = time.time()
    assert run(argv, capsys) == (0, want + "\n", "")
    assert time.time() - t0 < 2


_P8 = ["1", "0", "0", "0", "0", "0", "0", "1"]

# requests at the edges of the dispatch: no command, help, unknown or
# abbreviated commands, `--`, bad choices and counts, negative ranges,
# trailing extras, and requests argparse accepts but the plain reader hands
# over (an abbreviated option, --opt=value, an option between positionals);
# (argv, expected exit code)
_DISPATCH_EDGES = [
    ([], 2), (["-h"], 0), (["bogus"], 2), (["comp", "1", "0", "0", "1"], 2),
    (["--", "compute", "1", "0", "0", "1"], 2), (["-x", "compute", "1", "0", "0", "1"], 2),
    (["compute", "1", "0", "0", "1", "-h"], 0), (["compute", "-h"], 0), (["product", "--help"], 0),
    (["compute", "1", "0", "0", "1", "--format", "yaml"], 2),
    (["product", *_P8, "--format", "latex"], 2), (["verify", "nosuch"], 2),
    (["table", "grid", "1..2"], 2), (["compute", "1", "0", "0"], 2), (["product", *_P8[:7]], 2),
    (["compute", "1", "0", "0", "x"], 2), (["table", "layer", "-1..2"], 2),
    (["table", "layer", "0..2"], 0), (["table", "cluster", "-2..1"], 0),
    (["table", "cluster", "--", "-2..1"], 0), (["compute", "--", "1", "0", "0", "1"], 0),
    (["compute", "1", "0", "0", "1", "extra"], 2), (["product", *_P8, "--bogus"], 2),
    (["table", "layer", "1", "2"], 2), (["verify", "serre", "--k-max", "2"], 2),
]
_HANDED_OVER = [(["compute", "1", "0", "0", "1", "--form", "json"], 0),
                (["compute", "1", "0", "0", "1", "--format=json"], 0),
                (["product", *_P8[:4], "--format", "json", *_P8[4:]], 0)]
_DISPATCH_EDGES += _HANDED_OVER


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    """One process serving a sequence of requests prints what a fresh
    interpreter prints for each, and builds the parser once."""
    compute = ["compute", "2", "0", "0", "1"]
    # (argv, expected exit code)
    sequence = [
        (compute + ["--format", "json"], 0),
        (compute, 0),
        (["table", "cluster", "-3..1", "--bogus"], 2),
        (["table", "cluster", "-3..1"], 0),
        (["verify", "recursions"], 0),
        # past a suite's limit: one stderr line, before any suite runs
        (["verify", "all", "--n-max", "100000"], 3),
    ] + _DISPATCH_EDGES
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    # usage and help wrap at the same width in both processes, terminal or not
    monkeypatch.setenv("COLUMNS", "80")
    outputs = []
    # the reference interpreters run two at a time, beside the in-process
    # requests, which stay sequential and in order
    with ThreadPoolExecutor(max_workers=2) as pool:
        wants = [pool.submit(subprocess.run, [sys.executable, "-m", "qkron.cli", *argv],
                             capture_output=True, text=True, env=dict(_ENV, COLUMNS="80"))
                 for argv, _ in sequence]
        for (argv, want_code), want in zip(sequence, wants):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            want = want.result()
            assert code == want.returncode == want_code, argv
            assert (got.out, got.err) == (want.stdout, want.stderr), argv
            outputs.append(got.out)
    assert json.loads(outputs[0])["a"] == [2, 0, 0, 1]
    assert outputs[1].strip() == str(dcb.b_element((2, 0, 0, 1)))
    assert json.loads(outputs[4])["ok"] is True
    assert len(built) == 1


def test_known_commands_skip_the_top_level_parser(monkeypatch, capsys):
    # a request naming a command goes straight to that command's parser; the
    # top-level parser still reads no argument, help and an unknown command
    monkeypatch.setattr(cli, "_PARSER", None)
    assert cli.main(["compute", "0", "0", "0", "0"]) == 0
    reached = []

    def refuse(args=None, namespace=None):
        reached.append(args)
        raise RuntimeError("top-level parser reached")

    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    for argv in (["compute", "1", "0", "0", "1"], ["product", *_P8, "--format", "json"],
                 ["verify", "recursions", "--n-max", "1"], ["table", "cluster", "-2..1"]):
        assert cli.main(argv) == 0, argv
    assert reached == []
    for argv in ([], ["-h"], ["bogus"]):
        with pytest.raises(RuntimeError, match="top-level parser reached"):
            cli.main(argv)
    assert reached == [[], ["-h"], ["bogus"]]
    capsys.readouterr()


# the fuzz vocabulary of each command: a pool for each positional and one for
# each option's value (None for a flag), good values, repeated so that most
# requests are plain, beside negative, malformed and empty ones and bad choices
_INTS = ["0", "1", "2", "7"] * 16 + ["+1", " 3", "1_0", "-1", "-1_0", "-0", "x", "1.5", "", "0x1"]
_FORMATS = ["text", "json", "latex"] * 4 + ["yaml", ""]
_FUZZ = {
    "compute": ([_INTS] * 4, {"--format": _FORMATS, "--dual-pbw": None, "--q1": None,
                              "--max-layer": _INTS}),
    "product": ([_INTS] * 8, {"--format": _FORMATS, "--max-layer": _INTS}),
    "verify": ([[*cli.SUITES, "all", "nosuch", ""]],
               {"--n-max": _INTS, "--k-max": _INTS, "--seed": _INTS,
                "--mode": ["exact", "probabilistic", "fast", ""]}),
    "table": ([["cluster", "layer"] * 4 + ["grid", ""], ["1", "0..2"] * 4 + ["-2..1", "x", ""]],
              {"--format": _FORMATS, "--max-layer": _INTS}),
}
_NOISE = ["--", "-h", "--help", "-x", "--bogus", "", "extra", "-1", "--format", "--q1"]


def _fuzz_argv(rng):
    """One request: a command's positionals, sometimes one short or long,
    with options (exact, abbreviated, --opt=value or without their value,
    perhaps repeated) mostly after them and sometimes between them, and
    sometimes one noise token anywhere."""
    command = rng.choice(sorted(_FUZZ))
    slots, options = _FUZZ[command]
    tokens = [rng.choice(pool) for pool in slots]
    r = rng.random()
    if r < 0.1:
        del tokens[rng.randrange(len(tokens))]
    elif r < 0.2:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(slots[-1]))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        flag = rng.choice(sorted(options))
        pool = options[flag]
        group = [flag] if pool is None else [flag, rng.choice(pool)]
        r = rng.random()
        if r < 0.06 and pool:
            group = [f"{flag}={group[1]}"]
        elif r < 0.12:
            group[0] = flag[:rng.randint(3, len(flag) - 1)]
        elif r < 0.15 and pool:
            group.pop()
        at = len(tokens) if rng.random() < 0.85 else rng.randint(0, len(tokens))
        tokens[at:at] = group
    if rng.random() < 0.1:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_NOISE))
    return [command, *tokens]


def check_plain_reader(argvs):
    """Check each request on its command's plain reader against argparse:
    a namespace the reader returns is the one argparse returns, with no
    extras, and the reader returns None for every request on which argparse
    exits.  Returns (requests read, requests declined)."""
    parser = cli.build_parser()
    counts = [0, 0]
    for argv in argvs:
        read = parser.readers.get(argv[0]) if argv else None
        if read is None:
            assert not argv or argv[0] not in parser.commands, argv
            continue
        got = read(argv[1:])
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                want, extra = parser.commands[argv[0]].parse_known_args(
                    argv[1:], argparse.Namespace(command=argv[0]))
        except SystemExit:
            assert got is None, argv
        else:
            assert got is None or (vars(got), []) == (vars(want), extra), argv
        counts[got is None] += 1
    return tuple(counts)


def fuzz_plain_reader(count, seed):
    """`check_plain_reader` on `count` seeded requests over all four commands."""
    rng = random.Random(seed)
    return check_plain_reader([_fuzz_argv(rng) for _ in range(count)])


def test_plain_reader_agrees_with_argparse():
    read, declined = check_plain_reader([argv for argv, _ in _DISPATCH_EDGES])
    assert read > 0 and declined > 0
    # argparse reads these alike, but only because no option shares a prefix
    readers = cli.build_parser().readers
    assert all(readers[argv[0]](argv[1:]) is None for argv, _ in _HANDED_OVER)
    read, declined = fuzz_plain_reader(2000, seed=0)
    # both sides of the reader are well exercised
    assert read > 400 and declined > 400


def test_plain_requests_skip_argparse(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PARSER", None)
    assert cli.main(["compute", "0", "0", "0", "0"]) == 0

    def refuse(args=None, namespace=None):
        raise RuntimeError(f"argparse reached for {args}")

    for parser in (cli._PARSER, *cli._PARSER.commands.values()):
        monkeypatch.setattr(parser, "parse_known_args", refuse)
    a = ["1", "0", "0", "1"]
    for argv in (["compute", *a], ["compute", *a, "--format", "json"],
                 ["compute", *a, "--format", "latex"], ["compute", *a, "--dual-pbw"],
                 ["compute", *a, "--q1"], ["product", *_P8, "--format", "json"],
                 ["table", "cluster", "1..3", "--format", "latex"], ["table", "layer", "2"],
                 ["verify", "recursions", "--n-max", "3"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_failing_q1_cross_check_carries_a_witness(monkeypatch):
    # s_n plus 1: each q = 1 image of B[n,0,0,n] misses by the constant -1
    cheb = classical.chebyshev_basis_element
    monkeypatch.setattr(classical, "chebyshev_basis_element", lambda n, kind: cheb(n, kind) + 1)
    rep = cli._classical_cross_checks()
    assert [e["n"] for e in rep if not e["ok"]] == [2, 3, 4]
    for e in rep:
        if e["ok"]:
            assert list(e) == ["suite", "n", "identity", "ok"]
        else:
            assert e["detail"] == "first differing monomial (0, 0, 0, 0, 0, 0): -1"


@pytest.mark.parametrize("argv", [["table", "layer", "1"], ["verify", "layers", "--k-max", "2"]])
def test_failing_cache_entry_is_rewritten_silently(argv, tmp_path, monkeypatch, capsys):
    # the cache is write-only: an entry that would fail its check is never
    # read, the request answers as without a cache, and the file is rewritten
    monkeypatch.setattr(dcb, "_LAYER_TABLES", {})
    monkeypatch.delenv("QCA_CACHE_DIR", raising=False)
    code, want, err = run(argv, capsys)
    assert code == 0 and err == ""
    path = tmp_path / "layer_1.json"
    path.write_text('[{"a":[0,0,0,1],"element":{"terms":[{"exp":[0,0,0,1],"coef":"q"}]}}]')
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(dcb, "_LAYER_TABLES", {})
    code, out, err = run(argv, capsys)
    assert code == 0
    assert out == want
    assert err == ""
    assert path.read_text() == json.dumps([{"a": list(a), "element": e.to_json_dict()}
                                           for a, e in sorted(dcb.layer_table(1).entries.items())])


def _layer_dir_blocked(cache):
    # a directory where the layer file should be: reading it is an OSError
    (cache / "layer_1.json").mkdir(parents=True)


def _cache_dir_is_a_file(cache):
    # a regular file where the cache directory should be: writing is an OSError
    cache.write_text("")


@pytest.mark.parametrize("block", [_layer_dir_blocked, _cache_dir_is_a_file])
def test_cache_path_that_cannot_be_used_is_a_warned_miss(block, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dcb, "_LAYER_TABLES", {})
    monkeypatch.delenv("QCA_CACHE_DIR", raising=False)
    code, want, err = run(["table", "layer", "1"], capsys)
    assert code == 0 and err == ""
    cache = tmp_path / "cache"
    block(cache)
    monkeypatch.setenv("QCA_CACHE_DIR", str(cache))
    monkeypatch.setattr(dcb, "_LAYER_TABLES", {})
    code, out, err = run(["table", "layer", "1"], capsys)
    assert code == 0
    assert out == want
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"warning: ignoring layer cache {cache}")
