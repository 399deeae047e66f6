import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from partition_reference import _partitions
from plethysm import cli, hwv, tableaux, verify
from plethysm.cli import main
from plethysm.hwv import decompose
from plethysm.polynomials import MAX_DEGREE, Polynomial
from plethysm.verify import load_golden_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose_text(capsys):
    code, out = run(capsys, "decompose", "--k", "3", "--m", "2", "--variant", "sym")
    assert code == 0
    assert "(6)" in out and "(4,2)" in out and "(2,2,2)" in out
    assert "total multiplicity 3" in out


def test_decompose_json_matches_library(capsys):
    code, out = run(capsys, "decompose", "--m", "4", "--variant", "alt", "--format", "json")
    assert code == 0
    assert json.loads(out) == decompose(3, 4, "alt").to_json_obj()


def test_decompose_json_matches_golden_bytes(capsys):
    code, out = run(capsys, "decompose", "--m", "5", "--variant", "sym", "--format", "json")
    assert code == 0
    assert out == load_golden_text(5, "sym")


def test_decompose_expand_includes_polynomials(capsys):
    code, out = run(capsys, "decompose", "--m", "1", "--variant", "sym",
                    "--format", "json", "--expand")
    assert code == 0
    obj = json.loads(out)
    poly = obj["entries"][0]["words"][0]["polynomial"]
    assert poly == [{"coeff": "1", "exps": [[1, 1, 1], [1, 2, 1], [1, 3, 1]]}]


def test_decompose_k2(capsys):
    code, out = run(capsys, "decompose", "--k", "2", "--m", "3", "--variant", "sym")
    assert code == 0
    assert "(6)" in out and "(4,2)" in out


def test_hwv_single_word(capsys):
    code, out = run(capsys, "hwv", "--k", "3", "--m", "5", "--variant", "sym",
                    "--shape", "9,6")
    assert code == 0
    assert out.splitlines() == ["a1*g2^2  grade=5  weight=(9,6,0)"]


def test_hwv_double_point(capsys):
    code, out = run(capsys, "hwv", "--m", "6", "--variant", "sym", "--shape", "12,6",
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [w["b"] for w in obj["words"]] == [3, 0]
    assert obj["shape"] == [12, 6]


def test_hwv_empty_is_success(capsys):
    code, out = run(capsys, "hwv", "--m", "3", "--variant", "sym", "--shape", "8,1")
    assert code == 0
    assert out == ""


def test_hwv_expand(capsys):
    code, out = run(capsys, "hwv", "--m", "1", "--variant", "alt", "--shape", "1,1,1",
                    "--expand")
    assert code == 0
    assert "g1  grade=1  weight=(1,1,1)" in out
    assert "x[1][1]*x[2][2]*x[3][3]" in out


def test_kostka_command(capsys):
    code, out = run(capsys, "kostka", "--shape", "2,1", "--content", "1,1,1")
    assert code == 0 and out.strip() == "2"
    code, out = run(capsys, "kostka", "--shape", "4,2", "--content", "2,2,2")
    assert code == 0 and out.strip() == "3"


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--m", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_forced_discriminant_fails(monkeypatch, capsys):
    """The only test of exit 1: the printed gamma1 form is made to hold."""
    monkeypatch.setattr(hwv, "verify_discriminant_relation",
                        lambda: hwv.DiscriminantCheck(corrected_holds=True,
                                                      gamma1_variant_holds=True))
    code, out = run(capsys, "verify", "--m", "2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL discriminant-gamma1-variant-fails: "
        "the gamma1 form of the identity fails, as the gradings force"]
    assert out.endswith("17/18 checks passed\n")
    code, out = run(capsys, "verify", "--m", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--m", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["checks"])


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "decompose", "--m", "3", "--variant", "alt",
                    "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == decompose(3, 3, "alt").to_json_obj()


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["decompose", "--m", "-1"],
        ["decompose", "--m", "0", "--variant", "alt"],
        ["decompose", "--m", "2", "--n", "4"],  # no command takes --n
        ["decompose", "--m", "2", "--k", "4"],
        ["hwv", "--m", "2", "--shape", "3,2,1,1"],
        ["hwv", "--m", "2", "--shape", "5,2"],
        ["hwv", "--m", "2", "--shape", "1,2"],
        ["kostka", "--shape", "2,1"],
        ["verify", "--n", "4"],
        ["verify", "--force-printed-discriminant"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_hwv_k2_reads_the_decomposition(capsys):
    code, out = run(capsys, "hwv", "--k", "2", "--m", "3", "--variant", "alt",
                    "--shape", "5,1")
    assert code == 0
    assert out.splitlines() == ["a^2*g  grade=3  weight=(5,1)"]
    code, out = run(capsys, "hwv", "--k", "2", "--m", "3", "--shape", "5,1")
    assert code == 0 and out == ""


def test_hwv_solves_only_its_diagram(monkeypatch, capsys):
    """`hwv --shape` prints what it printed from the whole decomposition,
    byte for byte, without building that decomposition."""
    cases = [["--m", "6", "--shape", "12,6"], ["--m", "3", "--shape", "8,1"],
             ["--m", "40", "--shape", "60,40,20"], ["--m", "40", "--shape", "119,1"],
             ["--m", "2", "--variant", "alt", "--shape", "4,1,1", "--expand"],
             ["--k", "2", "--m", "3", "--variant", "alt", "--shape", "5,1"],
             ["--k", "2", "--m", "3", "--shape", "5,1"], ["--k", "2", "--m", "4", "--shape", "8"]]
    argvs = [["hwv", *case, *fmt] for case in cases for fmt in ([], ["--format", "json"])]
    # the report `hwv` read before: the whole decomposition
    monkeypatch.setattr(hwv, "diagram_report", lambda k, m, variant, diagram:
                        decompose(k, m, variant))
    before = [run(capsys, *argv) for argv in argvs]
    monkeypatch.undo()

    def no_report(*args):
        raise AssertionError("the whole decomposition was built")

    monkeypatch.setattr(hwv, "decompose", no_report)
    for argv, (code, out) in zip(argvs, before):
        assert code == 0
        assert run(capsys, *argv) == (0, out), argv


def test_instance_too_large_exits_3(capsys):
    assert main(["verify", "--m", "81"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("plethysm: instance too large: ")
    assert captured.err.count("\n") == 1


class WorkStarted(Exception):
    """Raised by a stand-in for the work a command does once its size check passes."""


@pytest.mark.parametrize("limit, argv, size", [
    ("--m for k = 3", ["decompose", "--m", "4"], 4),
    ("--m for k = 3", ["hwv", "--m", "4", "--variant", "alt", "--shape", "6,6"], 4),
    ("--m for k = 3 with --expand", ["decompose", "--m", "4", "--expand"], 4),
    ("--m for k = 3 with --expand", ["hwv", "--m", "4", "--shape", "12", "--expand"], 4),
    ("--m for k = 2", ["decompose", "--k", "2", "--m", "4", "--format", "json"], 4),
    ("--m for k = 2 with --expand", ["decompose", "--k", "2", "--m", "4", "--expand"], 4),
    ("--m for k = 2 with --expand", ["hwv", "--k", "2", "--m", "4", "--shape", "8", "--expand"], 4),
    ("verify --m", ["verify", "--m", "4"], 4),
], ids=["decompose", "hwv", "decompose-expand", "hwv-expand", "k2-decompose",
        "k2-decompose-expand", "k2-hwv-expand", "verify-m"])
def test_a_command_at_its_limit_runs_and_one_past_it_exits_3_before_any_work(
        monkeypatch, capsys, limit, argv, size):
    def no_work(*args, **kwargs):
        raise WorkStarted

    monkeypatch.setattr(hwv, "decompose", no_work)
    monkeypatch.setattr(hwv, "diagram_report", no_work)
    monkeypatch.setattr(verify, "run_verification", no_work)
    monkeypatch.setitem(cli.LIMITS, limit, size)
    with pytest.raises(WorkStarted):
        main(argv)
    monkeypatch.setitem(cli.LIMITS, limit, size - 1)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"plethysm: instance too large: {limit} is {size}, past the limit {size - 1}\n")


@pytest.mark.parametrize("argv, diagrams", [
    # (), (1), (2), (1, 1) and (2, 1)
    (["kostka", "--shape", "2,1", "--content", "1,1,1"], 5),
    # C(303, 3) diagrams: this took 99 s before kostka had a limit
    (["kostka", "--shape", "300,300,300", "--content", ",".join(["1"] * 900)], 4590551),
], ids=["small", "cube"])
def test_kostka_at_its_limit_runs_and_one_past_it_exits_3_before_any_work(
        monkeypatch, capsys, argv, diagrams):
    def no_work(*args, **kwargs):
        raise WorkStarted

    name = "diagrams inside kostka --shape"
    monkeypatch.setattr(tableaux, "kostka", no_work)
    if diagrams <= cli.LIMITS[name]:
        monkeypatch.setitem(cli.LIMITS, name, diagrams)
        with pytest.raises(WorkStarted):
            main(argv)
        monkeypatch.setitem(cli.LIMITS, name, diagrams - 1)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"plethysm: instance too large: {name} are past the limit {cli.LIMITS[name]}\n")


def test_diagrams_inside_counts_the_diagrams_in_the_shape():
    for total in range(9):
        for shape in _partitions(total, total):
            inside = sum(all(map(int.__le__, parts, shape))
                         for parts in itertools.product(*(range(r + 1) for r in shape))
                         if list(parts) == sorted(parts, reverse=True))
            for cap in (0, inside - 1, inside, 10 ** 6):
                assert cli._diagrams_inside(shape, cap) == min(inside, cap + 1)


@pytest.mark.parametrize("shape", ["1100", ",".join(["1"] * 1100)], ids=["row", "column"])
def test_kostka_past_the_recursion_limit(capsys, shape):
    code, out = run(capsys, "kostka", "--shape", shape, "--content", ",".join(["1"] * 1100))
    assert code == 0 and out.strip() == "1"


# sha256 of `decompose --expand` output, recorded from the tuple-of-pairs
# monomial layout; no golden table holds polynomials, so these pin the term
# order and the printing of expanded words
EXPANDED_SHA256 = {
    (3, 1, "sym", "json"): "6214c476ca1e56dc97f05044ed47bdb56dff4d19c43ef144083f2de0c37b34c1",
    (3, 1, "sym", "text"): "23f80184069ccd746fefb45829811a874d5dc32ff1740988dbf775e66c703fe0",
    (3, 1, "alt", "json"): "02737c2142c4eef1466632866a35da75c4319a84129bfbc4705673e397cf15fa",
    (3, 1, "alt", "text"): "562635c00c4d05ac3b964044c43e22484703e3800ff4ac381c172def74fbff96",
    (3, 2, "sym", "json"): "e85168abb4cc8ff036604f819c71b8395cd7034f50614573a5905cf2288bcb70",
    (3, 2, "sym", "text"): "3273eddb9b92a2cc1f9d4d2bc48228bd052be34e8e9f5a5c5f7b2f78e7caa019",
    (3, 2, "alt", "json"): "6e7f7b8d30af26e6568521ad54521d734a749f83c22aa7b4ce16514531a8f6d9",
    (3, 2, "alt", "text"): "3dcf6d147bb3a5877caa0210895aea5f995bbbf2278bfafd109c951d14292354",
    (3, 3, "sym", "json"): "7946593524e8dd61b8c078c53d598b4b2f626c32c02f807a24b2e949810cf99e",
    (3, 3, "sym", "text"): "4cee6af7a52c6a164b3a4057511ae09d0988b4ca512c8cf9cafff30da246e4e8",
    (3, 3, "alt", "json"): "8248589a1942922102fc3f5bb2abc9a1a5e2ce738d62cccb64102d1d08b688e2",
    (3, 3, "alt", "text"): "549f90cf35d526450dd3f62172fc48eee2d97b8d31ac2e6e2205e48531e57576",
    (3, 4, "sym", "json"): "5993eeecfae91efc03dd62719cd6bd1a2239962648a6c58b38cfaed65512e35f",
    (3, 4, "sym", "text"): "84b547569746ddd89f7dd9810b22918977d9db1326f8c91331c2e5ab5612bf00",
    (3, 4, "alt", "json"): "0db9cf8de3a1d23d9390cfb964669cccef9fc171b6ecd69a7324d7877a6a5932",
    (3, 4, "alt", "text"): "00fc80ec667e62b19d663777db475cd0ee76f204caccc5030cf3926adef5e754",
    (3, 5, "sym", "json"): "ae9e1aa389477b59b2cc5e49d24fb19cb4cbb94de2ac5dbdc92c67e9f3de9d13",
    (3, 5, "sym", "text"): "8a5910ec78eb09f31cff1d11df99d365308cad4cac39314ed4f78e056a8d67f1",
    (3, 5, "alt", "json"): "39b059ec81fe29e57f0cf4d44f5b4d3a6dbc6b2443ad7a612a69795d667f5fc3",
    (3, 5, "alt", "text"): "7e4f80ee0c5e7f9f524fd82f9d970c949e557d1038a263ad2a14f63c6dd83aac",
    (3, 6, "sym", "json"): "cd388ab4cb3b7413be297de3034c71769d332aa07385fc19f67dc9fe3b90c8a6",
    (3, 6, "sym", "text"): "c28cf13d2a49d6697386b5086a2a86b7aef97b2064ca0f1a5d82a4ea110a6547",
    (3, 6, "alt", "json"): "da7ad85f976128b18bba6493aa95ab02f9bcc50bfb7733c788e5048c8a453682",
    (3, 6, "alt", "text"): "fa33cceb4257621744ba95fa2d81d5fe420aa90d39b05ae8588b0a9c8dbfc015",
    # the four expand instances of the benchmark, as perfbench/workloads.json pins them
    (3, 9, "sym", "json"): "dd02d9ebff65952700aa045b277ead239c70ff6d65d728401f4bff5d5548d023",
    (3, 9, "alt", "json"): "0950a1f76cf70f42fc3a1b8837b45687bf730e76a423bd8d9f97cb1e556c98e6",
    (3, 10, "sym", "json"): "d869b92d23996b2c5ba794a6caa8e3f208b1a7d473cc473ac1bcca8a1d91c9f6",
    (3, 10, "alt", "json"): "351f5965137bdff823dfe478d4d0bb02b44d26ad9915d9667fc56613aceb0a12",
    (2, 7, "sym", "json"): "7b7de2d5c27955d46ef7fcf3134f6ac0b92fd31e0c88230043434215503113f4",
    (2, 7, "sym", "text"): "c876043b714437807ee009afc996a13d2d4f295006e1a148c832d49d1cb15b4e",
    (2, 7, "alt", "json"): "76e72a52f2668592aa189be0f21b68f378e2ede453c3ddc949ec33e32acfa58b",
    (2, 7, "alt", "text"): "7529b374fd81811aef75104c3a59e944ca3b8eee56b7f29805a6aaa7a7e1028e",
}


# sha256 of JSON documents that pin the layout of entries and words, each
# recorded before the writer streamed them in pieces
JSON_SHA256 = {
    "decompose --m 40 --format json":
        "c4323a3280daa24be2578a5aa0afdecef04e66fa28a4b4d9878ac1f04d509477",
    "decompose --m 40 --variant alt --format json":
        "116a342de6393aef1bc2fe98d422c3a11edd90674a8c32e0505414f20d6fb35b",
    "decompose --k 2 --m 1000 --format json":
        "6f52336803974db6705fcc7b34d210b7b2a5b982d34f441c2882298a8747a092",
    "hwv --m 12 --shape 18,12,6 --format json --expand":
        "56f400a1e10ed796deb190e78f1c911623931df92c9b855d934d47a4b1475c84",
}


@pytest.mark.parametrize("args", sorted(JSON_SHA256))
def test_json_output_bytes_are_pinned(tmp_path, args):
    out = tmp_path / "out"
    assert main([*args.split(), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == JSON_SHA256[args]


@pytest.mark.parametrize("k, m, variant, fmt", sorted(EXPANDED_SHA256))
def test_expanded_output_bytes_are_pinned(tmp_path, k, m, variant, fmt):
    out = tmp_path / "out"
    assert main(["decompose", "--k", str(k), "--m", str(m), "--variant", variant,
                 "--format", fmt, "--expand", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPANDED_SHA256[k, m, variant, fmt]


# sha256 of `verify` output; a change to any check's name, order or detail
# string changes these, and the pin is updated with it
VERIFY_SHA256 = {
    "--m 8 --format json": "7ff918ce4940a978569624bf421d7c59867bb13bf91cb498557c068efc088ac2",
    "--m 3": "00c1ec32b23e6d296139217de63e66f33266d7f59e3acfcf438b649ab1b805f5",
}


@pytest.mark.parametrize("args", sorted(VERIFY_SHA256))
def test_verify_output_bytes_are_pinned(tmp_path, args):
    out = tmp_path / "out"
    assert main(["verify", *args.split(), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SHA256[args]


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _command_key(argv: list[str]) -> tuple:
    """The options that argv sets, defaults filled in, ``--output`` left out,
    so that two spellings of one command compare equal."""
    return tuple(sorted((name, value) for name, value in
                        vars(cli.build_parser().parse_args(argv)).items()
                        if name != "output"))


def test_ci_sums_match_the_pins_of_tier_1(tmp_path):
    """Each `plethysm ... > FILE` of the CI workflow whose FILE an
    `echo "SHA  FILE" | sha256sum -c` checks: SHA is the pin above for the same
    command, or, for a command with no pin here, the sha256 of its output."""
    text = WORKFLOW.read_text(encoding="utf-8")
    commands = {file: args.split() for args, file in
                re.findall(r"^ *plethysm ([^>|\n]+?) > (\S+)$", text, re.MULTILINE)}
    sums = re.findall(r'^ *echo "([0-9a-f]{64})  (\S+)" \| sha256sum -c$', text, re.MULTILINE)
    assert len(sums) == 8 and {file for _, file in sums} <= set(commands)
    pins = {_command_key(["verify", *args.split()]): sha for args, sha in VERIFY_SHA256.items()}
    pins.update({_command_key(args.split()): sha for args, sha in JSON_SHA256.items()})
    pins.update({_command_key(["decompose", "--k", str(k), "--m", str(m), "--variant", variant,
                               "--format", fmt, "--expand"]): sha
                 for (k, m, variant, fmt), sha in EXPANDED_SHA256.items()})
    for sha, file in sums:
        argv, key = commands[file], _command_key(commands[file])
        if key not in pins:
            out = tmp_path / file
            assert main([*argv, "--output", str(out)]) == 0
            pins[key] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert sha == pins[key], " ".join(argv)


@pytest.mark.parametrize("argv", [
    ["decompose", "--m", "86", "--expand"],
    ["decompose", "--m", "86", "--expand", "--format", "json"],
    ["decompose", "--k", "2", "--m", "128", "--variant", "alt", "--expand"],
    ["hwv", "--m", "86", "--shape", "258", "--expand"],
])
def test_expand_past_the_degree_bound_exits_3_before_any_work(monkeypatch, capsys, argv):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(hwv, "decompose", no_work)
    monkeypatch.setattr(hwv, "diagram_report", no_work)
    monkeypatch.setattr(hwv.GeneratorWord, "expand", no_work)
    monkeypatch.setattr(hwv.WordK2, "expand", no_work)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    k, m = (2 if "--k" in argv else 3), int(argv[argv.index("--m") + 1])
    assert k * m > MAX_DEGREE
    name = f"--m for k = {k} with --expand"
    assert captured.err == (
        f"plethysm: instance too large: {name} is {m}, past the limit {cli.LIMITS[name]}\n"
    )


def test_k2_expand_runs_at_the_degree_bound(capsys):
    assert cli.LIMITS["--m for k = 2 with --expand"] == 127 == MAX_DEGREE // 2
    code, out = run(capsys, "decompose", "--k", "2", "--m", "127", "--variant", "alt",
                    "--expand", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 64  # one per odd gamma power


@pytest.mark.parametrize("argv", [["decompose", "--m", "2"], ["verify", "--m", "1"]],
                         ids=["decompose", "verify"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out"
    assert main([*argv, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"plethysm: error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["decompose", "--m", "12", "--expand", "--format", "json"],
    ["hwv", "--m", "2", "--shape", "4,2"],
    ["kostka", "--shape", "2,1", "--content", "1,1,1"],
    ["verify", "--m", "1"],
], ids=["decompose", "hwv", "kostka", "verify"])
def test_unwritable_output_exits_2_before_any_work(monkeypatch, tmp_path, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(hwv, "decompose", no_work)
    monkeypatch.setattr(hwv, "diagram_report", no_work)
    monkeypatch.setattr(tableaux, "kostka", no_work)
    monkeypatch.setattr(verify, "run_verification", no_work)
    target = tmp_path / "missing" / "out"
    assert main([*argv, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("plethysm: error: cannot write")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_output_check_creates_and_truncates_nothing(tmp_path, capsys):
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("old contents")
    for target in (kept, fresh):
        with pytest.raises(SystemExit):  # a usage error after the check
            main(["decompose", "--m", "-1", "--output", str(target)])
    assert kept.read_text() == "old contents"
    assert not fresh.exists()
    capsys.readouterr()
    assert main(["kostka", "--shape", "2,1", "--content", "1,1,1",
                 "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"plethysm: error: cannot write {tmp_path}: Is a directory\n"


def _shapes(k, m):
    """Every diagram of k*m boxes in at most k rows."""
    return sorted({tuple(p for p in parts if p)
                   for parts in itertools.product(range(k * m + 1), repeat=k)
                   if sum(parts) == k * m and list(parts) == sorted(parts, reverse=True)})


def _hwv_json_by_the_encoder(k, m, variant, shape):
    """`hwv --expand --format json` as it was built before the emitter: word
    dicts, each polynomial's `to_json_obj`, and `json.dumps(indent=2)`."""
    words = next((e.words for e in decompose(k, m, variant).entries if e.diagram == shape), ())
    obj = {"k": k, "m": m, "variant": variant, "shape": list(shape),
           "words": [w.to_json_obj() for w in words]}
    for word, wenc in zip(words, obj["words"]):
        wenc["polynomial"] = word.expand().to_json_obj()
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("k, m, variant", [
    (k, m, variant) for k in (2, 3) for variant in ("sym", "alt")
    for m in range(0 if variant == "sym" else 1, 6)
])
def test_hwv_expand_json_matches_the_encoder(capsys, k, m, variant):
    for shape in _shapes(k, m):
        code, out = run(capsys, "hwv", "--k", str(k), "--m", str(m), "--variant", variant,
                        "--shape", ",".join(map(str, shape)) or "0",
                        "--expand", "--format", "json")
        assert code == 0
        assert out == _hwv_json_by_the_encoder(k, m, variant, shape), shape


def test_expand_json_sends_no_polynomial_through_the_encoder(monkeypatch, capsys):
    def encoder_input(self):
        raise AssertionError("a polynomial was built for json.dumps")

    monkeypatch.setattr(Polynomial, "to_json_obj", encoder_input)
    for argv in (["decompose", "--m", "4"], ["hwv", "--m", "4", "--shape", "8,4"]):
        code, out = run(capsys, *argv, "--expand", "--format", "json")
        assert code == 0
        assert '"polynomial": [' in out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_that_fails_partway_exits_2(capsys):
    assert main(["decompose", "--m", "6", "--expand", "--format", "json",
                 "--output", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "plethysm: error: cannot write /dev/full: No space left on device\n"


def test_reader_that_closes_stdout_early_is_a_success():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "plethysm", "decompose", "--m", "10", "--expand",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stderr.close()
    assert head == b'{\n  "k": 3,\n  "m": 1'
    assert code == 0
    assert err == b""
