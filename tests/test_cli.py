"""CLI contract: formats, golden outputs, exit codes, environment override."""

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from sketchbound import left_tail_exact
from sketchbound.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name: str, actual: str):
    path = DATA / name
    if os.environ.get("SKETCHBOUND_UPDATE_GOLDEN"):
        path.write_text(actual, encoding="utf-8")
    assert actual == path.read_text(encoding="utf-8")


def test_bound_text_golden(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "60", "--s", "30", "--k", "17",
                           "--delta", "0.05", "--engine", "direct", "--no-bonferroni")
    assert code == 0
    check_golden("bound_direct_60.txt", out)


def test_bound_json_golden(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "60", "--s", "30", "--k", "17",
                           "--delta", "0.05", "--engine", "stirling", "--no-bonferroni",
                           "--format", "json")
    assert code == 0
    check_golden("bound_stirling_60.json", out)


def test_text_and_json_agree(capsys):
    args = ("bound", "--n", "500", "--s", "50", "--k", "9", "--delta", "0.1")
    code, text_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert [p["side"] for p in payload] == ["upper", "lower"]
    for p in payload:
        assert f"{p['side']} bound: {p['m_hat']}" in text_out
        assert f"tail_hi={p['tail_hi']}" in text_out
        assert f"tail_lo={p['tail_lo']}" in text_out
        assert f"delta={p['delta']}" in text_out


def test_bonferroni_default_halves_delta(capsys):
    _, out, _ = run_cli(capsys, "bound", "--n", "100", "--s", "20", "--k", "5",
                        "--delta", "0.05", "--format", "json")
    payload = json.loads(out)
    assert all(p["delta"] == "0.025" for p in payload)
    _, out, _ = run_cli(capsys, "bound", "--n", "100", "--s", "20", "--k", "5",
                        "--delta", "0.05", "--format", "json", "--no-bonferroni")
    payload = json.loads(out)
    assert all(p["delta"] == "0.05" for p in payload)
    _, out, _ = run_cli(capsys, "bound", "--n", "100", "--s", "20", "--k", "5",
                        "--delta", "0.05", "--sides", "upper", "--format", "json")
    payload = json.loads(out)
    assert [p["delta"] for p in payload] == ["0.05"]


def test_bound_matches_library(capsys):
    from sketchbound import QueryInstance, upper_bound

    _, out, _ = run_cli(capsys, "bound", "--n", "777", "--s", "111", "--k", "22",
                        "--delta", "0.02", "--sides", "upper", "--format", "json")
    payload = json.loads(out)[0]
    expect = upper_bound(QueryInstance(777, 111, 22, "0.02"), "auto")
    assert payload["m_hat"] == expect.m_hat
    assert payload["iterations"] == expect.iterations


def test_huge_counts_serialize_as_strings(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", str(10**18), "--s", "100", "--k", "37",
                           "--delta", "0.05", "--sides", "upper", "--engine", "stirling",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)[0]
    assert isinstance(payload["n"], str) and payload["n"] == str(10**18)
    assert isinstance(payload["m_hat"], str)
    assert isinstance(payload["s"], int)  # small counts stay numbers
    assert int(payload["m_hat"]) > 0


def test_count_beyond_limit_rejected(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", str(10**18 + 1), "--s", "10",
                           "--k", "2", "--delta", "0.05")
    assert code == 2


def test_tail_text_golden(capsys):
    code, out, _ = run_cli(capsys, "tail", "--n", "10", "--m", "5", "--s", "4",
                           "--k", "1", "--which", "left", "--engine", "exact")
    assert code == 0
    check_golden("tail_exact.txt", out)


def test_tail_k_equals_s_is_one(capsys):
    _, out, _ = run_cli(capsys, "tail", "--n", "50", "--m", "20", "--s", "6",
                        "--k", "6", "--which", "left", "--engine", "direct")
    assert out.strip().endswith("= 1")


def test_tail_engines_agree(capsys):
    args = ("tail", "--n", "3000", "--m", "1100", "--s", "300", "--k", "120", "--which", "left")
    _, out_a, _ = run_cli(capsys, *args, "--engine", "direct", "--format", "json")
    _, out_b, _ = run_cli(capsys, *args, "--engine", "stirling", "--format", "json")
    a = float(json.loads(out_a)["value"])
    b = float(json.loads(out_b)["value"])
    assert abs(a - b) <= 2e-16


def test_tail_right_complement(capsys):
    _, out, _ = run_cli(capsys, "tail", "--n", "10", "--m", "5", "--s", "4",
                        "--k", "2", "--which", "right", "--engine", "exact",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["exact"] == "31/42"  # 155/210 reduced


@pytest.mark.parametrize("engine", ["direct", "stirling"])
@pytest.mark.parametrize("args", [
    ("--m", "99000", "--k", "960", "--which", "left"),
    ("--m", "1000", "--k", "40", "--which", "right"),
])
def test_small_tails_keep_their_printed_digits(capsys, engine, args):
    # right(100000, 1000, 1000, 40) = left(100000, 99000, 1000, 960), about 3e-13;
    # 30 digits leave a 1e-22 target, relative to the tail as well
    code, out, _ = run_cli(capsys, "tail", "--n", "100000", "--s", "1000", *args,
                           "--engine", engine, "--format", "json")
    assert code == 0
    got = Fraction(json.loads(out)["value"])
    expect = left_tail_exact(100000, 99000, 1000, 960, max_n=None)
    assert abs(got - expect) <= expect / 10**22


@pytest.mark.parametrize("engine", ["direct", "stirling", "exact"])
def test_right_tail_at_zero_checks_domain(capsys, engine):
    # k = 0 makes the right tail 1 only for a valid (n, m, s)
    code, out, err = run_cli(capsys, "tail", "--n", "10", "--m", "5", "--s", "20",
                             "--k", "0", "--which", "right", "--engine", engine)
    assert code == 2
    assert out == ""
    assert "sample size" in err


@pytest.mark.parametrize("which", ["left", "right"])
@pytest.mark.parametrize("engine", ["direct", "stirling", "exact"])
def test_tail_success_count_above_population_exits_2(capsys, engine, which):
    code, out, err = run_cli(capsys, "tail", "--n", "10", "--m", "11", "--s", "5",
                             "--k", "2", "--which", which, "--engine", engine)
    assert code == 2
    assert out == ""
    assert "success count" in err


def test_batch_golden(capsys, tmp_path):
    batch = tmp_path / "conditions.txt"
    batch.write_text(
        "# one sample, three conditions\n"
        "1000 100 0.1\n"
        "walrus 7\n"
        "auk 12\n"
        "puffin 0\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "batch", str(batch))
    assert code == 0
    check_golden("batch_three.txt", out)
    code, out, _ = run_cli(capsys, "batch", str(batch), "--format", "json")
    assert code == 0
    check_golden("batch_three.json", out)


def test_batch_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("100 10 0.1\nonly 3\n"))
    code, out, _ = run_cli(capsys, "batch", "-")
    assert code == 0
    assert "only:" in out


def test_batch_matches_individual_bounds(capsys):
    # a j-condition batch equals per-condition bounds at delta/(2j)
    import io

    _, out, _ = run_cli(capsys, "bound", "--n", "1000", "--s", "100", "--k", "12",
                        "--delta", "0.025", "--no-bonferroni", "--format", "json")
    single = {p["side"]: p["m_hat"] for p in json.loads(out)}
    # batch of two conditions at delta = 0.1: per side 0.1/4 = 0.025
    sys_stdin = io.StringIO("1000 100 0.1\na 12\nb 30\n")
    code = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", sys_stdin)
        code, out, _ = run_cli(capsys, "batch", "-", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_side_delta"] == "0.025"
    row = next(c for c in payload["conditions"] if c["label"] == "a")
    assert row["upper"]["m_hat"] == single["upper"]
    assert row["lower"]["m_hat"] == single["lower"]


def test_single_condition_batch_is_plain_two_sided_bound(capsys):
    # j = 1 batch at delta splits to delta/2 per side, same as the default
    # two-sided bound command
    import io

    _, out, _ = run_cli(capsys, "bound", "--n", "1000", "--s", "100", "--k", "12",
                        "--delta", "0.05", "--format", "json")
    single = {p["side"]: p["m_hat"] for p in json.loads(out)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO("1000 100 0.05\nonly 12\n"))
        code, out, _ = run_cli(capsys, "batch", "-", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_side_delta"] == "0.025"
    row = payload["conditions"][0]
    assert row["upper"]["m_hat"] == single["upper"]
    assert row["lower"]["m_hat"] == single["lower"]


def test_bound_json_schema_keys_are_stable(capsys):
    _, out, _ = run_cli(capsys, "bound", "--n", "100", "--s", "20", "--k", "5",
                        "--delta", "0.05", "--format", "json")
    for payload in json.loads(out):
        assert list(payload.keys()) == [
            "n", "s", "k", "delta", "side", "m_hat", "engine", "digits",
            "tail_lo", "tail_hi", "iterations",
        ]


def test_batch_file_parsing():
    from fractions import Fraction

    from sketchbound.cli import _parse_batch

    parsed = _parse_batch(["# hi", "", "50 10 0.2", "a 3", "b 0  # trailing"])
    assert parsed == (50, 10, Fraction(1, 5), (("a", 3), ("b", 0)))


def test_batch_errors_carry_line_numbers(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1000 100 0.1\nfirst 7\nfirst 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "batch", str(bad))
    assert code == 2
    assert "line 3" in err
    bad.write_text("1000 100 0.1\noops 7 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "batch", str(bad))
    assert code == 2
    assert "line 2" in err
    bad.write_text("1000 100\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "batch", str(bad))
    assert code == 2
    assert "line 1" in err
    code, _, err = run_cli(capsys, "batch", str(tmp_path / "missing.txt"))
    assert code == 2


def test_batch_unreadable_input_exits_2(capsys, tmp_path):
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes("1000 100 0.1\ncaf\u00e9 7\n".encode("latin-1"))
    for path in (tmp_path, undecodable, tmp_path / "missing.txt"):
        code, out, err = run_cli(capsys, "batch", str(path))
        assert code == 2, path
        assert out == ""
        assert "cannot read batch file" in err


def test_coverage_json_reproducible(capsys):
    args = ("coverage", "--n", "200", "--m", "70", "--s", "25", "--delta", "0.1",
            "--trials", "60", "--seed", "1", "--format", "json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    check_golden("coverage_200.json", first)


def test_coverage_zero_trials_exits_2(capsys):
    code, _, err = run_cli(capsys, "coverage", "--n", "200", "--m", "70", "--s", "25",
                           "--delta", "0.1", "--trials", "0", "--seed", "1")
    assert code == 2


def test_coverage_success_count_above_population_exits_2(capsys):
    code, out, err = run_cli(capsys, "coverage", "--n", "200", "--m", "201", "--s", "25",
                             "--delta", "0.1", "--trials", "60", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "success count" in err


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "5", "--s", "9", "--k", "2",
                           "--delta", "0.05")
    assert code == 2
    assert "sample size" in err
    code, _, _ = run_cli(capsys, "bound", "--n", "10", "--s", "5", "--k", "7",
                         "--delta", "0.05")
    assert code == 2
    code, _, _ = run_cli(capsys, "bound", "--n", "10", "--s", "5", "--k", "2",
                         "--delta", "1.5")
    assert code == 2
    code, _, _ = run_cli(capsys, "bound", "--n", "10", "--s", "5", "--k", "2")
    assert code == 2  # missing required flag
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_precision_infeasible_exits_3(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "1000000000000", "--s", "10000000",
                           "--k", "9000000", "--delta", "0.05", "--sides", "upper",
                           "--engine", "stirling", "--digits", "16")
    assert code == 3
    assert "precision" in err.lower()


@pytest.mark.parametrize("argv", [
    ("bound", "--n", "100", "--s", "20", "--k", "5", "--delta", "0.05"),
    ("tail", "--n", "10", "--m", "5", "--s", "4", "--k", "1", "--which", "left"),
    ("coverage", "--n", "200", "--m", "70", "--s", "25", "--delta", "0.1",
     "--trials", "5"),
])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_digits_zero_is_rejected_not_the_default(capsys, monkeypatch, argv, source):
    if source == "flag":
        argv = (*argv, "--digits", "0")
    else:
        monkeypatch.setenv("SKETCHBOUND_DIGITS", "0")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "precision" in err


def test_exact_engine_over_limit_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "1000000", "--s", "100", "--k", "10",
                           "--delta", "0.05", "--engine", "exact")
    assert code == 2
    assert "exact oracle" in err


@pytest.mark.parametrize("k, sides", [("100", "upper"), ("0", "lower")])
def test_exact_engine_over_limit_exits_2_on_short_cuts(capsys, k, sides):
    # k = s (upper) and k = 0 (lower) need no tail, but the guard still holds
    code, out, err = run_cli(capsys, "bound", "--n", "1000000", "--s", "100", "--k", k,
                             "--delta", "0.05", "--engine", "exact", "--sides", sides)
    assert code == 2
    assert out == ""
    assert "exact oracle" in err


def test_env_digits_respected(capsys, monkeypatch):
    monkeypatch.setenv("SKETCHBOUND_DIGITS", "42")
    _, out, _ = run_cli(capsys, "tail", "--n", "10", "--m", "5", "--s", "4", "--k", "1",
                        "--which", "left", "--engine", "direct", "--format", "json")
    assert json.loads(out)["digits"] == 42
    # explicit flag wins over the environment
    _, out, _ = run_cli(capsys, "tail", "--n", "10", "--m", "5", "--s", "4", "--k", "1",
                        "--which", "left", "--engine", "direct", "--digits", "20",
                        "--format", "json")
    assert json.loads(out)["digits"] == 20
    monkeypatch.setenv("SKETCHBOUND_DIGITS", "pony")
    code, _, _ = run_cli(capsys, "tail", "--n", "10", "--m", "5", "--s", "4", "--k", "1",
                         "--which", "left", "--engine", "direct")
    assert code == 2
