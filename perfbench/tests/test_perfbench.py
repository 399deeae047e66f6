"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


SMALLEST = {"verify": {"m": 7}, "expand": {"m": 9, "variant": "sym"}, "kernel": {"m": 5},
            "character": {"m": 11, "n": 3}}


def smallest(workload: str) -> dict:
    """The cheapest instance of the workload's pool, with seeded sub-case order."""
    return next(s for s in workloads.make_instances(workload, random.Random(0))
                if s["params"] == SMALLEST[workload])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_op_smoke_run_reports_every_metric_with_its_unit(workload):
    instance = smallest(workload)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(workload, 0, 0, trace, instances=[instance])
        line = run.result_line(result, trace, SPEC)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] == (2 if trace else 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def test_wrong_answer_reaching_the_checker_counts_as_failed():
    instance = smallest("kernel")
    check = workloads.CHECKS["kernel"]

    def tampered(spec, output, workdir):
        variant, shape, value = output["mults"][0]
        output["mults"][0] = [variant, shape, value + 1]
        return check(spec, output, workdir)

    result = run.run_workload("kernel", 0, 0, False, instances=[instance], check=tampered)
    assert (result["attempted"], result["failed"]) == (1, 1)
    line = run.result_line(result, False, SPEC)
    assert line["correct"] is False and line["failed"] == 1


@pytest.mark.parametrize("workload", ("character", "verify"))
def test_checks_reject_wrong_outputs(workload):
    spec = smallest(workload)
    if workload == "character":
        good = {"mults": {v: [[list(d), x] for d, x in
                              workloads.expected_mults(spec["params"]["m"], v).items()]
                          for v in ("sym", "alt")}}
        bad = json.loads(json.dumps(good))
        bad["mults"]["alt"][0][1] += 1
    else:
        good = {"passed": True, "names": list(workloads.DATA["verify_check_names"])}
        bad = dict(good, names=good["names"][:-1])
    assert workloads.CHECKS[workload](spec, good, HERE) is None
    assert workloads.CHECKS[workload](spec, bad, HERE) is not None


def test_spans_nest_and_self_times_are_nonnegative():
    from plethysm import oracle, verify

    original = oracle.raising_operator
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        verify.run_verification(m_max=2, n=3)
        oracle.hwv_kernel_multiplicity(2, 3, (4, 2), "alt", max_dim=100)
    finally:
        restore()
    assert oracle.raising_operator is original
    spans = tracer.spans
    assert spans and all(end >= start for _, _, start, end in spans)
    for _, parent, start, end in spans:
        if parent is not None:
            _, _, p_start, p_end = spans[parent]
            assert p_start <= start <= end <= p_end
    assert all(own >= 0 for own in tracer.self_times_ns())
    roots = [s for s in spans if s[1] is None]
    assert [s[0] for s in roots] == ["verify.run_verification",
                                     "oracle.hwv_kernel_multiplicity"]
    metrics = tracer.layer_metrics()
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(tracer.root_ns() / 1e9)
    assert metrics["tableaux.kostka.calls"] > 0
    assert metrics["actions.raising_operator.calls"] > 0


def test_count_drift_between_runs_fails(tmp_path):
    record = run.CountRecord(tmp_path / "counts.json", "digest")
    assert record.check("kernel:m=5", {"a": 1, "b": 2}) is None
    record.save()
    again = run.CountRecord(tmp_path / "counts.json", "digest")
    assert again.check("kernel:m=5", {"a": 1, "b": 2}) is None
    assert "b" in again.check("kernel:m=5", {"a": 1, "b": 3})
    other_sources = run.CountRecord(tmp_path / "counts.json", "changed")
    assert other_sources.check("kernel:m=5", {"a": 1, "b": 3}) is None


def test_children_get_a_pinned_environment(monkeypatch):
    monkeypatch.setenv("PLETHYSM_MAX_DIM", "1")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.child_env()
    assert not any(k.startswith("PLETHYSM_") for k in env)
    assert env["PYTHONHASHSEED"] == "0"


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    layer_names = list(tracing.Tracer().layer_metrics())
    layer_names += ["trace.op_s.p50", "trace.overhead_s", "trace.span_coverage"]
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names


def test_seed_fixes_the_inputs():
    for workload in workloads.NAMES:
        a = workloads.make_instances(workload, random.Random(7))
        b = workloads.make_instances(workload, random.Random(7))
        assert a == b
        assert sorted(s["key"] for s in a) == sorted(
            workloads.instance_key(workload, p) for p in workloads.DATA["pools"][workload])
