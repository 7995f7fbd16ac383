import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conglab
from conglab import matgroups
from conglab.analyzer import EXAMPLE_NAMES
from conglab.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SUITE_FAILURE,
    main,
)
from conglab.domains import parse_domain
from conglab.quotients import _quotient, build_quotient
from conglab.suites import SURVEY_FAMILIES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example(capsys):
    code, out, err = run_cli(["analyze", "--example", "ex2_13"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["index"] == 4
    assert report["level"] == "(t)"
    assert sorted(report["amplitudes"]) == ["(1)", "(t)"]
    assert report["theorems"]["cusp_split"] is True


def test_analyze_example_with_redundant_domain_flags(capsys):
    code, out, _ = run_cli(
        ["analyze", "--domain", "Fq[t] q=3", "--modulus", "(t)", "--example", "ex2_13"],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["index"] == 4


def test_analyze_kernel_frame(capsys, tmp_path):
    gens = tmp_path / "empty.json"
    gens.write_text("[]")
    code, out, _ = run_cli(
        ["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", str(gens)],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["index"] == 144
    assert report["level"] == "(6)"


def test_analyze_gens_file(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]))
    code, out, _ = run_cli(
        ["analyze", "--domain", "Z", "--modulus", "(5)", "--gens", str(gens)],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["index"] == 1


def test_analyze_ex5_4(capsys):
    code, out, _ = run_cli(["analyze", "--example", "ex5_4"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["index"] == 2
    assert report["theorems"]["C"]["status"] == "not_applicable"
    assert report["theorems"]["C"]["residue"] == 4
    assert report["theorems"]["index_level"]["tight"] is True


def test_analyze_parse_error_exit_code(capsys):
    code, _, err = run_cli(["analyze", "--domain", "bogus", "--modulus", "(6)"], capsys)
    assert code == EXIT_PARSE
    assert "parse" in err


DEEP = "(" * 3000 + "1" + ")" * 3000


def test_deeply_nested_entry_is_a_parse_error(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[[DEEP, "0"], ["0", "1"]]]))
    code, out, err = run_cli(["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", str(gens)], capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert "nests too deeply" in err


@pytest.mark.parametrize("text", ["1$", "(1", "t^-1", "2^3", "x", "", DEEP])
def test_malformed_element_texts_exit_2(capsys, tmp_path, text):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[[text, "0"], ["0", "1"]]]))
    argv = ["analyze", "--domain", "Fq[t] q=3", "--modulus", "(t^2)", "--gens", str(gens)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert "parse" in err


# read as ASCII numerals, each request is a valid frame: diag(3, 3) has
# determinant 1 modulo 8, and the identity lies in SL2 over F3[t]/(t)
@pytest.mark.parametrize(
    "domain, modulus, entry",
    [("Z", "(8)", "\u0663"), ("Z", "(\u0668)", "3"), ("Fq[t] q=\u0663", "(t)", "1")],
)
def test_non_ascii_digits_exit_2(capsys, tmp_path, domain, modulus, entry):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[[entry, "0"], ["0", entry]]]))
    argv = ["analyze", "--domain", domain, "--modulus", modulus, "--gens", str(gens)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_PARSE, "")


def test_analyze_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(
        ["--ring-cap", "3", "analyze", "--domain", "Z", "--modulus", "(6)"], capsys
    )
    assert code == EXIT_CAP
    assert "cap" in err


def test_analyze_group_cap_is_checked_against_the_order_formula(capsys):
    # |SL2(Z/6)| = 144: the frame is refused below that without building SL2
    argv = ["analyze", "--domain", "Z", "--modulus", "(6)"]
    code, out, err = run_cli(["--group-cap", "143", *argv], capsys)
    assert code == EXIT_CAP
    assert out == ""
    assert "cap" in err
    code, out, _ = run_cli(["--group-cap", "144", *argv], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["index"] == 144
    # the same verdicts over the now interned ring and its warm columns
    code, out, err = run_cli(["--group-cap", "143", *argv], capsys)
    assert (code, out) == (EXIT_CAP, "") and "cap" in err
    assert run_cli(["--group-cap", "144", *argv], capsys)[0] == EXIT_OK


def whole_sl2_gens(tmp_path):
    """A generators file holding T(1) and S(1), which generate SL2(Z/n) for every n."""
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]))
    return str(path)


def test_whole_sl2_request_never_closes_the_group(capsys, tmp_path, monkeypatch):
    # |SL2(Z/60)| = 138240: order and membership come from the column chain,
    # which never lists the group's elements
    calls = []
    real = matgroups.FinMatGroup.codes

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(matgroups.FinMatGroup, "codes", counting)
    argv = ["analyze", "--domain", "Z", "--modulus", "(60)", "--gens", whole_sl2_gens(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert (report["index"], report["level"], len(report["cusps"])) == (1, "(1)", 1)
    assert calls == []


def test_group_cap_verdicts_hold_for_a_frame_given_by_generators(capsys, tmp_path):
    # H = SL2(Z/6) has 144 elements, so a cap of 144 admits it and 143 does not
    argv = ["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", whole_sl2_gens(tmp_path)]
    for _ in range(2):  # a cold ring, then the interned one
        code, out, err = run_cli(["--group-cap", "143", *argv], capsys)
        assert (code, out) == (EXIT_CAP, "") and "cap" in err
        code, out, _ = run_cli(["--group-cap", "144", *argv], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["index"] == 1


def test_second_analyze_builds_no_ring_and_walks_no_columns(capsys):
    argv = ["analyze", "--domain", "Z", "--modulus", "(6)"]
    _, first, _ = run_cli(argv, capsys)
    Z = parse_domain("Z")
    ring = build_quotient(Z, Z.parse_ideal("(6)"))
    columns = ring._columns
    builds = _quotient.cache_info().misses
    _, second, _ = run_cli(argv, capsys)
    assert second == first
    assert _quotient.cache_info().misses == builds
    # the column table is only ever assigned once it is complete
    assert columns is not None and ring._columns is columns


def test_byte_identical_output(capsys):
    _, out1, _ = run_cli(["analyze", "--example", "ex3_5"], capsys)
    _, out2, _ = run_cli(["analyze", "--example", "ex3_5"], capsys)
    assert out1 == out2


def test_screen_perm(capsys, tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 1, "S": [0], "T": [0]}))
    code, out, _ = run_cli(["screen-perm", "--permrep", str(path)], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "congruence, level 1"


def test_screen_perm_rejects_bad_relations(capsys, tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 4, "S": [1, 2, 3, 0], "T": [0, 1, 2, 3]}))
    code, _, err = run_cli(["screen-perm", "--permrep", str(path)], capsys)
    assert code == EXIT_PARSE


def test_screen_subspace(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"k": 2, "f": "t^3+t+1", "basis": ["t", "t^2"]}))
    code, out, _ = run_cli(["screen-subspace", "--subspace", str(path)], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["level"] == "(t^3+t+1)"
    assert report["ql_codim"] == 1
    assert report["congruence_possible"] is False


def test_enumerate_modular(capsys):
    code, out, _ = run_cli(["enumerate-modular", "--max-index", "3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["count"] >= 3
    assert all(sum(r["cusp_split"]) == r["n"] for r in report["reps"])


def test_modular_screens_output_is_pinned(capsys):
    # the screens' stdout, byte for byte, whatever algorithm decides the exact test
    code, out, _ = run_cli(["enumerate-modular", "--max-index", "12", "--screen"], capsys)
    assert code == EXIT_OK
    digest = "caff902d4b0df7009d405d2c5b40a5dea1ea3c63fb84fce1e985619d1e0708fb"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("value", ["0", "-1"])
def test_enumerate_modular_rejects_max_index_below_one(capsys, value):
    code, out, err = run_cli(["enumerate-modular", "--max-index", value], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "max index" in err


def test_verify_suite_single(capsys):
    code, out, _ = run_cli(["verify-suite", "--suite", "lemma4_5"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suites"][0]["name"] == "center_triviality"
    assert report["suites"][0]["failures"] == []


def test_verify_suite_exhaustive_family(capsys):
    code, out, _ = run_cli(
        ["verify-suite", "--suite", "theoremA", "--exhaustive", "Z/4"], capsys
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suites"][0]["name"] == "amplitude_extrema"
    assert report["suites"][0]["failures"] == []


def test_verify_suite_unknown(capsys):
    code, _, err = run_cli(["verify-suite", "--suite", "nope"], capsys)
    assert code == EXIT_PARSE


def test_text_format(capsys):
    code, out, _ = run_cli(["--format", "text", "analyze", "--example", "ex2_13"], capsys)
    assert code == EXIT_OK
    assert "index: 4" in out
    assert "level: (t)" in out


def test_caps_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CONGLAB_CAPS", "ring=3")
    code, _, err = run_cli(["analyze", "--domain", "Z", "--modulus", "(6)"], capsys)
    assert code == EXIT_CAP
    monkeypatch.setenv("CONGLAB_CAPS", "bogus=3")
    code, _, err = run_cli(["analyze", "--domain", "Z", "--modulus", "(6)"], capsys)
    assert code == EXIT_PARSE


def test_verify_suite_parallel_jobs(capsys):
    code, out, _ = run_cli(
        ["verify-suite", "--suite", "lemma4_5", "--jobs", "2"], capsys
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suites"][0]["failures"] == []


class SerialExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    workers = []

    def __init__(self, max_workers=None):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_default_verify_suite_is_byte_identical_across_jobs(capsys):
    # forked workers inherit the parent's interned rings; output must not move
    code, serial, _ = run_cli(["verify-suite", "--jobs", "1"], capsys)
    assert code == EXIT_OK
    code, forked, _ = run_cli(["verify-suite", "--jobs", "2"], capsys)
    assert code == EXIT_OK
    assert forked == serial


def test_verify_suite_jobs_never_exceed_the_suites(capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(SerialExecutor, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    _, serial, _ = run_cli(["verify-suite", "--suite", "crt"], capsys)
    code, out, _ = run_cli(["verify-suite", "--suite", "crt", "--jobs", "5000"], capsys)
    assert code == EXIT_OK and out == serial
    assert SerialExecutor.workers == [1]


def test_verify_suite_seeded_byte_identical(capsys):
    _, out1, _ = run_cli(["verify-suite", "--suite", "crt", "--seed", "7"], capsys)
    _, out2, _ = run_cli(["verify-suite", "--suite", "crt", "--seed", "7"], capsys)
    assert out1 == out2


@pytest.mark.parametrize("flag", ["--ring-cap", "--group-cap", "--factor-cap"])
def test_zero_cap_flag_is_rejected(capsys, flag):
    code, _, err = run_cli([flag, "0", "analyze", "--example", "ex2_13"], capsys)
    assert code == EXIT_PARSE
    assert "caps must be positive" in err


@pytest.mark.parametrize("suite", ["condition_L", "factor_roundtrip", "crt"])
def test_factor_cap_bounds_the_suites_factoring_of_random_ideals(capsys, suite):
    code, out, err = run_cli(["--factor-cap", "10", "verify-suite", "--suite", suite], capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert err.startswith("error: cap: ideal norm ")
    assert err.endswith(" exceeds factoring cap 10\n")


def test_factor_cap_bounds_analyze(capsys, tmp_path):
    # every ideal a frame factors contains q0, so |D/q0| = 30 above the cap is refused
    gens = tmp_path / "empty.json"
    gens.write_text("[]")
    argv = ["analyze", "--domain", "Z", "--modulus", "(30)", "--gens", str(gens)]
    refused = (EXIT_CAP, "", "error: cap: ideal norm 30 exceeds factoring cap 2\n")
    assert run_cli(["--factor-cap", "2", *argv], capsys) == refused
    code, plain, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert run_cli(["--factor-cap", "30", *argv], capsys) == (EXIT_OK, plain, "")


@pytest.mark.parametrize("example", ["ex2_13", "ex4_9", "ex4_10"])
def test_factor_cap_bounds_the_examples(capsys, example):
    code, out, err = run_cli(["--factor-cap", "2", "analyze", "--example", example], capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert err.startswith("error: cap: ideal norm ") and err.endswith(" exceeds factoring cap 2\n")


def test_factor_cap_bounds_the_exhaustive_frames(capsys):
    code, out, err = run_cli(
        ["--factor-cap", "3", "verify-suite", "--suite", "theoremA", "--exhaustive", "Z/4"], capsys
    )
    assert (code, out, err) == (EXIT_CAP, "", "error: cap: ideal norm 4 exceeds factoring cap 3\n")


@pytest.mark.parametrize(
    "argv",
    [["--suite", "crt"], [], ["--jobs", "2"], ["--suite", "theoremA", "--exhaustive", "Z/4"]],
)
def test_unknown_exhaustive_family_exits_before_any_suite(capsys, monkeypatch, argv):
    import concurrent.futures

    def refuse(*args):
        raise AssertionError("a suite started")

    monkeypatch.setattr(SerialExecutor, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr("conglab.suites.run_suite", refuse)
    code, out, err = run_cli(["verify-suite", *argv, "--exhaustive", "Z/99"], capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: parse: unknown families ['Z/99']; known: ")
    assert SerialExecutor.workers == []


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_suite_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(["verify-suite", "--suite", "lemma4_5", "--jobs", jobs], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "--jobs" in err


def test_screen_perm_group_cap_exit_code(capsys, tmp_path):
    # one T-cycle of length 7: level 7, kernel index 168
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 7, "S": [0, 1, 3, 2, 4, 6, 5], "T": [1, 2, 4, 0, 5, 6, 3]}))
    code, out, err = run_cli(["--group-cap", "10", "screen-perm", "--permrep", str(path)], capsys)
    assert code == EXIT_CAP
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"n": 0, "S": [], "T": []}),
        json.dumps({"n": 2.7, "S": [1, 0], "T": [1.9, 0]}),
        "[" * 100_000,
        "{not json",
    ],
    ids=["zero-points", "float-fields", "deep-nesting", "not-json"],
)
def test_screen_perm_out_of_contract_exits_2(capsys, tmp_path, text):
    path = tmp_path / "rep.json"
    path.write_text(text)
    code, out, err = run_cli(["screen-perm", "--permrep", str(path)], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "parse" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"k": 2, "f": "t^3+t+1", "basis": None},
        {"k": 2, "f": "t^3+t+1", "basis": 7},
        {"k": 2, "f": "t^3+t+1", "basis": "t"},
        {"k": 2, "f": "t^3+t+1", "basis": {"t": 1}},
        {"k": 2, "f": "t^3+t+1", "basis": ["t", 1]},
        {"k": 2, "f": 7, "basis": ["t"]},
        {"k": True, "f": "t^3+t+1", "basis": ["t"]},
        {"k": 2.0, "f": "t^3+t+1", "basis": ["t"]},
    ],
    ids=[
        "null-basis", "integer-basis", "string-basis", "map-basis",
        "integer-basis-entry", "integer-f", "boolean-k", "float-k",
    ],
)
def test_screen_subspace_out_of_contract_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["screen-subspace", "--subspace", str(path)], capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert "parse" in err


@pytest.mark.parametrize(
    "doc",
    [
        [[["1", "1"], "01"]],
        [["11", ["0", "1"]]],
        [[["1", "1"], ["0", "1"], ["0", "1"]]],
        [[[1, 1], [0, 1]]],
        [[["1", None], ["0", "1"]]],
    ],
    ids=["string-row", "string-first-row", "three-rows", "integer-entries", "null-entry"],
)
def test_analyze_gens_out_of_contract_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(doc))
    argv = ["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert "parse" in err


BIG_PRIME = 1000000000000037


def run_timed(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 10  # the units of F_q were listed for 34 s and more
    return code, out, err


def test_screen_subspace_over_a_large_prime_field_exits_3(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"k": BIG_PRIME, "f": "t", "basis": []}))
    code, out, err = run_timed(["screen-subspace", "--subspace", str(path)], capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert "ring cap 65536" in err


def test_analyze_gens_over_a_large_prime_field_exits_3(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[["1", "1"], ["0", "1"]]]))
    argv = ["analyze", "--domain", f"Fq[t] q={BIG_PRIME}", "--modulus", "(t)", "--gens", str(path)]
    code, out, err = run_timed(argv, capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert "ring cap 65536" in err


@pytest.mark.parametrize("text", ["(9)^9999999", "((9)^100)^100", "(1+1)^600*(2)^600"])
def test_analyze_gens_with_a_huge_power_exits_3(capsys, tmp_path, text):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[["1", text], ["0", "1"]]]))
    argv = ["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", str(path)]
    code, out, err = run_timed(argv, capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert "degree above the cap 1024" in err


@pytest.mark.parametrize(
    "domain,modulus,order",
    [("Q(sqrt(-1)) maximal", "(250)", 168750000000000), ("Z", "(2000)", 5760000000)],
)
def test_analyze_checks_the_group_cap_before_building_the_ring(capsys, domain, modulus, order):
    # |D/q0| passes the ring cap (62,500 and 2,000 elements), |SL2(D/q0)| fails the
    # group cap; the ring's units were listed for 2 s, its tables would fill 4M entries
    argv = ["analyze", "--domain", domain, "--modulus", modulus]
    code, out, err = run_timed(argv, capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert err == f"error: cap: |SL2(R)| = {order} exceeds cap 5000000\n"
    assert _quotient.cache_info().misses == 0


@pytest.mark.parametrize("value", ["\u0666\u0665", "6_5", "+65", " 65"])
def test_cap_values_in_the_environment_are_ascii_decimal(capsys, monkeypatch, value):
    monkeypatch.setenv("CONGLAB_CAPS", f"ring={value}")
    code, out, err = run_cli(["analyze", "--example", "ex2_13"], capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert "bad cap value in CONGLAB_CAPS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--ring-cap", "\u0666\u0665", "analyze", "--example", "ex2_13"],
        ["--group-cap", "5_000_000", "analyze", "--example", "ex2_13"],
        ["analyze", "--factor-cap", "+7", "--example", "ex2_13"],
        ["--seed", "\uff17", "verify-suite", "--suite", "crt"],
        ["enumerate-modular", "--max-index", "1_2"],
        ["verify-suite", "--suite", "crt", "--jobs", "\u0662"],
    ],
)
def test_integer_flags_are_ascii_decimal(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid decimal value" in captured.err


@pytest.mark.parametrize("doc", [
    {"k": 3, "f": "t^2", "basis": ["(t+1)^9999999"]},
    {"k": 3, "f": "t^1025", "basis": []},
])
def test_screen_subspace_with_a_huge_power_exits_3(capsys, tmp_path, doc):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_timed(["screen-subspace", "--subspace", str(path)], capsys)
    assert (code, out) == (EXIT_CAP, "")
    assert "degree above the cap 1024" in err


def test_warm_repeats_print_the_cold_bytes(capsys):
    # the first pass runs on cold rings (the conftest fixture clears them), so
    # every ring memo fills here; the second pass reads them
    argvs = [["analyze", "--example", name] for name in EXAMPLE_NAMES] + [
        ["verify-suite", "--suite", name] for name in ("amplitude_extrema", "level_divisibility")
    ]
    cold = [run_cli(argv, capsys) for argv in argvs]
    assert all(code == EXIT_OK for code, _, _ in cold)
    assert [run_cli(argv, capsys) for argv in argvs] == cold


# ---------------------------------------------------------------------------
# generated documents: any JSON file exits 0, 2 or 3, never with a traceback

TEXTS = st.sampled_from(["0", "1", "2", "-1", "5", "t", "t^2", "t+1", "t^3+t+1", "u*t", "x"])
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.integers(-3, 12)
    # huge integers above the factoring cap only: a large prime k below it still
    # takes minutes to factor or exhausts memory (an open defect, see ROADMAP.md)
    | st.integers(2 ** 64, 2 ** 200)
    | st.text(max_size=6)
    | TEXTS
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# documents near the contract, so that some pass and reach the screens
PERMREPS = st.integers(1, 5).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "S": st.permutations(range(n)), "T": st.permutations(range(n))}
    )
)
POLYNOMIALS = st.sampled_from(["0", "1", "t", "t^2", "t+1", "t^2+1", "t^3+t+1"])
SUBSPACES = st.fixed_dictionaries(
    {"k": st.sampled_from([2, 3, "Fq[t] q=9 mod=u^2+1", "Z"]), "f": POLYNOMIALS,
     "basis": st.lists(POLYNOMIALS, max_size=3) | st.sampled_from([None, 7, "t", {"t": 1}])}
)
MATRIX_LISTS = st.lists(
    TEXTS.map(lambda x: [["1", x], ["0", "1"]])
    | TEXTS.map(lambda x: [["1", "0"], [x, "1"]])
    | st.lists(st.lists(TEXTS, min_size=2, max_size=2), min_size=2, max_size=2),
    max_size=2,
)


def run_generated(path, doc, argv):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_CAP), err.getvalue()
    if code != EXIT_OK:
        assert out.getvalue() == ""


GENERATED = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@GENERATED
@given(PERMREPS | st.fixed_dictionaries(dict.fromkeys("nST", JSON_DOCS)) | JSON_DOCS)
def test_screen_perm_on_generated_documents(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "generated-rep.json"
    run_generated(path, doc, ["screen-perm", "--permrep", str(path), "--all"])


@GENERATED
@given(SUBSPACES | st.fixed_dictionaries(dict.fromkeys(["k", "f", "basis"], JSON_DOCS)) | JSON_DOCS)
def test_screen_subspace_on_generated_documents(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "generated-sub.json"
    run_generated(path, doc, ["screen-subspace", "--subspace", str(path)])


@GENERATED
@given(MATRIX_LISTS | st.lists(st.lists(JSON_DOCS, max_size=3), max_size=2) | JSON_DOCS)
def test_analyze_gens_on_generated_documents(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "generated-gens.json"
    run_generated(path, doc, ["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", str(path)])


def python_env():
    return dict(os.environ, PYTHONPATH=str(Path(conglab.__file__).resolve().parents[1]))


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, env=python_env(), timeout=300)


PATCHED_ORDER_FORMULA = """
import sys
from conglab import cli, matgroups
matgroups.sl2_order_formula = lambda modulus: 7
sys.exit(cli.main(["analyze", "--domain", "Z", "--modulus", "(2)"]))
"""

# T(x) in H for five of the six x over Z/6: the chain order 24 * 5 does not divide 144
PATCHED_CHAIN = """
import sys
from conglab import cli, matgroups
real = matgroups.additive_closure
def short(seed, ring):
    group = real(seed, ring)
    return type(group)(ring, group.elements - {max(group.elements)}, group.generators)
matgroups.additive_closure = short
sys.exit(cli.main(["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", sys.argv[1]]))
"""

# Z[w]/(4), w = (1+sqrt(-7))/2, with the first element of its additive basis
# only: the walk that builds the tables reaches 4 of its 16 elements
PATCHED_GENERATORS = """
import sys
from conglab import cli, domains, quotients
real = domains.QuadraticDomain.residues
def truncated(self, data):
    residues, reduce, basis = real(self, data)
    return residues, reduce, basis[:1]
domains.QuadraticDomain.residues = truncated
D = domains.parse_domain("Q(sqrt(-7)) maximal")
try:
    quotients.build_quotient(D, D.parse_ideal("(4)"))
except domains.InternalCheckError:
    pass
else:
    sys.exit("a ring was built from generators that do not span it")
sys.exit(cli.main(["analyze", "--domain", "Q(sqrt(-7)) maximal", "--modulus", "(4)"]))
"""

# the whole gate through cli.main, one JSON document per line
GATE = """
import json, sys
from conglab import cli
from conglab.analyzer import EXAMPLE_NAMES
runs = [["analyze", "--example", name] for name in EXAMPLE_NAMES]
runs.append(["enumerate-modular", "--max-index", "12", "--screen"])
for suite in (
    "exact_soundness", "amplitude_extrema", "level_divisibility",
    "center_triviality", "coprime_product", "cube_law", "quotients",
    "subspace_screen",
):
    runs.append(["verify-suite", "--suite", suite])
for argv in runs:
    code = cli.main(argv)
    if code:
        sys.exit(code)
sys.stderr.write(json.dumps({"optimize": sys.flags.optimize}))
"""


@pytest.fixture(scope="module")
def gate():
    """The gate's stdout and stderr, plain and under -O, run once for the module."""
    # the plain and the optimised run go side by side, one process each
    procs = [
        subprocess.Popen(
            [sys.executable, *flags, "-c", GATE],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=python_env(),
        )
        for flags in ((), ("-O",))
    ]
    try:
        (plain_out, plain_err), (out, err) = [p.communicate(timeout=300) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [EXIT_OK, EXIT_OK], err
    assert json.loads(plain_err) == {"optimize": 0}
    assert json.loads(err) == {"optimize": 1}
    assert out == plain_out
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 6 + 1 + 8
    return docs


def gate_suites(gate):
    return {s["name"]: (s["checks"], s["passed"]) for d in gate[7:] for s in d["suites"]}


def test_output_and_checks_survive_python_O(gate):
    assert [d["index"] for d in gate[:6]] == [4, 6, 6, 192, 3, 2]  # C1-C6
    assert list(gate_suites(gate)) == [
        "exact_soundness",
        "amplitude_extrema",
        "level_divisibility",
        "center_triviality",
        "coprime_product",
        "cube_law",
        "quotients",
        "subspace_screen",
    ]
    assert gate_suites(gate)["subspace_screen"] == (267, 267)
    broken = run_python("-O", "-c", PATCHED_ORDER_FORMULA)
    assert broken.returncode == EXIT_INTERNAL
    assert b"internal-check" in broken.stderr


def test_modular_screens_survive_python_O(gate):
    assert gate[6]["count"] == 175


def test_structural_suites_pass_under_python_O(gate):
    suites = gate_suites(gate)
    assert {name: suites[name] for name in ("center_triviality", "coprime_product", "cube_law", "quotients")} == {
        "center_triviality": (5, 5),
        "coprime_product": (7, 7),
        "cube_law": (9, 9),
        "quotients": (44, 44),
    }


def test_survey_gate_passes_under_python_O(gate):
    # C9 and C10
    suites = gate_suites(gate)
    assert [suites["amplitude_extrema"], suites["level_divisibility"]] == [(531, 531), (531, 531)]


def test_exact_soundness_passes_under_python_O(gate):
    # compares frame levels and cusp widths with the permreps' exact tests and T-cycles
    assert gate_suites(gate)["exact_soundness"] == (1649, 1649)


def test_a_broken_column_chain_exits_internal_check_under_python_O(tmp_path):
    broken = run_python("-O", "-c", PATCHED_CHAIN, whole_sl2_gens(tmp_path))
    assert broken.returncode == EXIT_INTERNAL
    assert broken.stdout == b""
    assert b"internal-check: column chain" in broken.stderr
    assert b"Traceback" not in broken.stderr


# every cusp's m * |D:b| term one too large, or its squared-unit orbit emptied
PATCHED_CUSPS = """
import dataclasses, sys
from conglab import analyzer, cli
real = analyzer.cusps
change = {"term": lambda c: {"term": c.term + 1}, "orbit": lambda c: {"orbit": ()}}[sys.argv[1]]
analyzer.cusps = lambda frame: tuple(dataclasses.replace(c, **change(c)) for c in real(frame))
sys.exit(cli.main(sys.argv[2:]))
"""


def test_a_failed_cusp_split_exits_internal_check_under_python_O(tmp_path):
    argv = ["analyze", "--domain", "Z", "--modulus", "(6)", "--gens", whole_sl2_gens(tmp_path)]
    broken = run_python("-O", "-c", PATCHED_CUSPS, "term", *argv)
    assert broken.returncode == EXIT_INTERNAL
    assert broken.stdout == b""
    assert broken.stderr == b"error: internal-check: cusp split equation fails\n"


@pytest.mark.parametrize(
    "suite, change, checks, families, message",
    [
        ("theoremA", "term", 531, SURVEY_FAMILIES, "cusp split equation fails"),
        ("square_unit_closure", "orbit", 193, ("Z/6", "Z/8", "F3[t]/(t^2)"),
         "squared-unit closure fails on a frame"),
    ],
)
def test_survey_suites_record_a_failed_check(suite, change, checks, families, message):
    broken = run_python("-c", PATCHED_CUSPS, change, "verify-suite", "--suite", suite)
    assert (broken.returncode, broken.stderr) == (EXIT_SUITE_FAILURE, b"")
    (report,) = json.loads(broken.stdout)["suites"]
    assert (report["checks"], report["passed"], len(report["failures"])) == (checks, 0, checks)
    assert {f.split(" frame of order ")[0] for f in report["failures"]} == set(families)
    assert all(f.endswith(f": {message}") for f in report["failures"])


def test_generators_that_miss_part_of_the_ring_exit_internal_check_under_python_O():
    broken = run_python("-O", "-c", PATCHED_GENERATORS)
    assert broken.returncode == EXIT_INTERNAL
    assert broken.stdout == b""
    assert b"internal-check: additive generators reach 4 of 16 elements" in broken.stderr
    assert b"Traceback" not in broken.stderr
