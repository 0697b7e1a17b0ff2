"""Command line interface: output shapes and exit codes."""

from __future__ import annotations

import json

import pytest
from helpers import count_calls

from axdiv import hasse_blocks, parse_report, serialize_variety_spec, variety_spec_to_json
from axdiv.cli import main


@pytest.fixture()
def ex2_path(tmp_path, ex2_variety):
    path = tmp_path / "ex2.json"
    path.write_text(variety_spec_to_json(ex2_variety), encoding="utf-8")
    return str(path)


@pytest.fixture()
def skew_path(tmp_path, skew_system):
    from axdiv import unit_variety

    path = tmp_path / "skew.json"
    path.write_text(variety_spec_to_json(unit_variety(skew_system)), encoding="utf-8")
    return str(path)


def test_bounds_text(ex2_path, capsys):
    assert main(["bounds", ex2_path]) == 0
    out = capsys.readouterr().out
    assert "ax_katz: 0" in out
    assert "mu: 1" in out


def test_bounds_json(ex2_path, capsys):
    assert main(["bounds", ex2_path, "--format", "json"]) == 0
    data = parse_report(capsys.readouterr().out)
    assert data["kind"] == "bounds"
    assert data["mu"] == 1
    assert data["w_polytope"] == 2


def test_verify_passes_and_reports(ex2_path, capsys):
    assert main(["verify", ex2_path, "--primes", "5..13"]) == 0
    out = capsys.readouterr().out
    assert "p=5" in out and "(inadmissible, informative only)" in out
    assert "p=7" in out and "congruent=True" in out


def test_verify_csv(ex2_path, capsys):
    assert main(["verify", ex2_path, "--prime", "7", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,a,mu,admissible,count")
    assert lines[1].startswith("7,1,1,True,91")


def test_verify_prime_range_validation(ex2_path):
    with pytest.raises(SystemExit):
        main(["verify"])  # missing spec
    assert main(["verify", ex2_path, "--primes", "13..5"]) == 2
    assert main(["verify", ex2_path]) == 2  # neither --prime nor --primes


def test_density_json(ex2_path, capsys):
    assert main(["density", ex2_path, "--limit", "31", "--format", "json"]) == 0
    data = parse_report(capsys.readouterr().out)
    assert data["sharp_count"] == 8
    assert data["note"] == "window estimate, not a density"


def test_conditional_text(ex2_path, skew_path, capsys):
    assert main(["conditional", ex2_path]) == 0
    out = capsys.readouterr().out
    assert "c: -1" in out
    assert "prediction: sharp for all large admissible primes" in out
    assert main(["conditional", skew_path]) == 0
    out = capsys.readouterr().out
    assert "c: undefined" in out
    assert "D: [1, 2]" in out


def test_hasse_golden(ex2_path, capsys):
    assert main(["hasse", ex2_path, "--prime", "5"]) == 0
    out = capsys.readouterr().out
    assert "4*A[1,(3,3,0)]^4 + 4*A[1,(0,2,2)]^4 + 1*A[1,(0,2,2)]^4*A[1,(3,3,0)]^4" in out
    assert "structure checks: ok" in out


def test_hasse_builds_the_blocks_once(ex2_path, monkeypatch, capsys):
    calls = count_calls(monkeypatch, hasse_blocks)
    assert main(["hasse", ex2_path, "--prime", "13"]) == 0
    assert "structure checks: ok" in capsys.readouterr().out
    assert len(calls) == 1


def test_count_command(ex2_path, capsys):
    assert main(["count", ex2_path, "--prime", "5"]) == 0
    assert "|V(F_5^1)| = 45" in capsys.readouterr().out
    assert main(["count", ex2_path, "--prime", "3", "--a", "2"]) == 0
    assert "= 153" in capsys.readouterr().out


def test_non_prime_field_exits_2(ex2_path, capsys):
    # --prime 9 once counted over Z/9 (333 points); F_9 is --prime 3 --a 2 (153)
    for p in ("9", "4", "1"):
        assert main(["count", ex2_path, "--prime", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: p = {p} is not a prime\n"
    assert main(["verify", ex2_path, "--prime", "9"]) == 2
    assert "p = 9 is not a prime" in capsys.readouterr().err


def test_huge_prime_exits_2_on_the_budget(ex2_path, capsys):
    assert main(["count", ex2_path, "--prime", "1000000000000000003"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: q^n = ")
    assert captured.err.endswith(" exceeds the enumeration budget 100000000\n")


def test_dwork_command_and_self_test(ex2_path, capsys):
    assert main(["dwork", ex2_path, "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "match" in out
    # Corrupt mode must detect the perturbation to exit 0.
    assert main(["dwork", ex2_path, "--prime", "3", "--corrupt"]) == 0
    out = capsys.readouterr().out
    assert "detected" in out


def test_corpus_files(tmp_path, capsys):
    outdir = tmp_path / "corpus"
    assert main(["corpus", "--seed", "1", "--count", "3", "--out", str(outdir)]) == 0
    files = sorted(outdir.glob("*.json"))
    assert [f.name for f in files] == [
        "system-1-000.json", "system-1-001.json", "system-1-002.json"]
    from axdiv import generate_corpus, parse_variety_spec

    specs = generate_corpus(1, 3)
    for f, expected in zip(files, specs):
        assert parse_variety_spec(f.read_text(encoding="utf-8")) == expected


def test_corpus_stdout_json(capsys):
    assert main(["corpus", "--seed", "2", "--count", "2", "--format", "json"]) == 0
    data = parse_report(capsys.readouterr().out)
    assert data["seed"] == 2
    assert len(data["systems"]) == 2
    from axdiv import generate_corpus

    assert data["systems"][0] == json.loads(
        json.dumps(serialize_variety_spec(generate_corpus(2, 2)[0])))


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["bounds", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 0, "polynomials": []}', encoding="utf-8")
    assert main(["bounds", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "$.n" in err


def test_guard_errors_exit_2(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "n": 4, "polynomials": [{"support": [[1, 1, 1, 1]], "coefficients": ["1"]}],
    }), encoding="utf-8")
    assert main(["count", str(big), "--prime", "101"]) == 2


def test_constant_term_rejection_exits_2(tmp_path):
    spec = tmp_path / "const.json"
    spec.write_text(json.dumps({
        "n": 1, "polynomials": [{"support": [[0], [1]], "coefficients": ["1", "1"]}],
    }), encoding="utf-8")
    assert main(["dwork", str(spec), "--prime", "3"]) == 2
