import json

import pytest

from plethysm.cli import main
from plethysm.hwv import decompose
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


def test_verify_forced_discriminant_fails(capsys):
    code, out = run(capsys, "verify", "--m", "2", "--force-printed-discriminant")
    assert code == 1
    assert "FAIL alpha23-printed-variant" in out


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
        ["decompose", "--m", "2", "--n", "2"],
        ["decompose", "--m", "2", "--k", "4"],
        ["hwv", "--m", "2", "--shape", "3,2,1,1"],
        ["hwv", "--m", "2", "--shape", "5,2"],
        ["hwv", "--m", "2", "--shape", "1,2"],
        ["kostka", "--shape", "2,1"],
        ["verify", "--n", "2"],
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


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_malformed_max_dim_env_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("PLETHYSM_MAX_DIM", value)
    assert main(["verify"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"plethysm: error: PLETHYSM_MAX_DIM must be a non-negative integer, got {value!r}\n"
    )


def test_negative_max_dim_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--max-dim", "-1"])
    assert err.value.code == 2
    assert "--max-dim must be nonnegative" in capsys.readouterr().err


def test_instance_too_large_exits_3(capsys):
    assert main(["verify", "--m", "3", "--max-dim", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("plethysm: instance too large: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("shape", ["1100", ",".join(["1"] * 1100)], ids=["row", "column"])
def test_kostka_past_the_recursion_limit(capsys, shape):
    code, out = run(capsys, "kostka", "--shape", shape, "--content", ",".join(["1"] * 1100))
    assert code == 0 and out.strip() == "1"
