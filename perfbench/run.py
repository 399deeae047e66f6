"""Cold-process benchmark of plethysm: verify, word expansion and both oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/run.py --cache-gap

Every op runs in a fresh interpreter, because a command-line user pays the
package's lru_caches cold on every invocation; a warm in-process repeat would
hide that (`--cache-gap` measures the difference).  One client, closed loop:
the next op is spawned only after the previous one has exited and its output
has been checked.  A run cycles through the workload's whole instance pool in
an order drawn from the seed, until --seconds have passed and at least one
full cycle is done.  Per instance the median is taken, and a run reports the
mean of those medians over the pool, so every seed measures the same work.

A probe process runs between consecutive ops: it imports the package (a
set-up sample) and times a fixed reference computation that shares no code
with the package.  On a shared machine whose speed swings by tens of percent
within seconds, op time divided by the mean of its two bracketing reference
times (op_rel, cmd_rel) repeats far better than seconds do, so those ratios
are the gated metrics; seconds are printed beside them.  Likewise setup_s is
each probe's import time scaled by its own reference time to a nominal
machine speed (REF_NOMINAL_S).

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer ones (names and units in BENCHMARK.json).  A traced
run alternates untraced and traced ops so the tracing overhead is measured
in the same run.  Children get a pinned environment: no PLETHYSM_* variable,
PYTHONHASHSEED=0 and PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPEC_FILE = ROOT / "BENCHMARK.json"
OP_TIMEOUT_S = 120
# setup_s is scaled to the machine speed at which reference_work takes this
# long (about its median on the machine the benchmark was defined on), so that
# the machine's drift cancels; setup_raw_s is the unscaled median.
REF_NOMINAL_S = 0.15

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLETHYSM_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(job: dict, scratch: Path) -> dict:
    """Run child.py on `job`; time it from spawn to exit and read its result.

    `scratch` is the calling run's private directory for the result file.
    """
    result_path = scratch / "result.json"
    result_path.unlink(missing_ok=True)
    job = dict(job, result=str(result_path))
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    with open(scratch / "stderr.txt", "wb+") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip().splitlines()
    sample = {"cmd_s": (end - start) / 1e9, "error": None}
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = stderr[-1] if stderr else "no stderr"
        sample["error"] = f"exit code {proc.returncode}: {tail}"
        return sample
    sample["setup_s"] = (result["ready_ns"] - start) / 1e9
    sample["result"] = result
    return sample


def source_digest() -> str:
    """sha256 of the package sources, keying the determinism record."""
    h = hashlib.sha256()
    for path in sorted((SRC / "plethysm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


class CountRecord:
    """Exact per-instance counts from traced ops, kept across runs on disk.

    A count that differs from the one recorded for the same instance and the
    same package sources fails the op: the program is not deterministic.
    """

    def __init__(self, path: Path, digest: str):
        self.path = path
        try:
            self.all = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.all = {}
        self.known = self.all.setdefault(digest, {})

    def check(self, key: str, counts: dict) -> str | None:
        known = self.known.setdefault(key, counts)
        drift = sorted(k for k in counts if counts[k] != known.get(k))
        return f"counts differ from earlier runs: {drift}" if drift else None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def pool_mean(by_key: dict[str, list[float]]) -> float:
    """Mean over instances of each instance's median."""
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 instances: list[dict] | None = None, check=None) -> dict:
    """Run one workload for `seconds`; returns op counts and samples."""
    if instances is None:
        instances = workloads.make_instances(workload, random.Random(seed))
    WORK.mkdir(exist_ok=True)
    record = CountRecord(WORK / "counts.json", source_digest()) if trace else None
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = _cycle(workload, instances, seconds, trace,
                     check or workloads.CHECKS[workload], record, Path(tmp))
    if record is not None:
        record.save()
    return run


def _cycle(workload, instances, seconds, trace, check, record, scratch) -> dict:
    setups, scaled_setups = [], []

    def probe() -> float:
        sample = spawn({"probe": True}, scratch)
        if sample["error"]:
            raise RuntimeError(f"set-up probe failed: {sample['error']}")
        ref_s = sample["result"]["ref_s"]
        setups.append(sample["setup_s"])
        scaled_setups.append(sample["setup_s"] * REF_NOMINAL_S / ref_s)
        return ref_s

    schedule = [(spec, traced) for spec in instances
                for traced in ((False, True) if trace else (False,))]
    by_mode = {False: defaultdict(list), True: defaultdict(list)}
    last_cost: dict[tuple, float] = {}
    attempted = failed = 0
    workdir = scratch / "op"
    deadline = time.monotonic() + seconds
    # Probes bracket every op, sampling set-up and the machine's speed at the
    # same moments as the ops.
    ref = probe()
    for i, (spec, traced) in enumerate(itertools.cycle(schedule)):
        slot = (spec["key"], traced)
        begin = time.monotonic()
        if i >= len(schedule) and begin + last_cost[slot] > deadline:
            break
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        sample = spawn({"workload": workload, "spec": spec, "trace": traced,
                        "workdir": str(workdir)}, scratch)
        ref_after = probe()
        sample["ref_s"] = (ref + ref_after) / 2
        ref = ref_after
        attempted += 1
        error = sample["error"]
        if error is None:
            setups.append(sample["setup_s"])
            result = sample["result"]
            error = check(spec, result["output"], workdir)
            if error is None and traced:
                counts = {k: result["layers"][k] for k in tracing.COUNTS}
                error = record.check(spec["key"], counts)
        last_cost[slot] = time.monotonic() - begin
        if error is not None:
            failed += 1
            print(f"FAILED {workload} {spec['key']} traced={traced}: {error}", file=sys.stderr)
            continue
        by_mode[traced][spec["key"]].append(sample)
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "setups": setups, "scaled_setups": scaled_setups,
            "plain": by_mode[False], "traced": by_mode[True]}


E2E_UNITS = {"setup_s": "s", "setup_raw_s": "s", "op_s.p50": "s", "cmd_s.p50": "s", "ref_s.p50": "s",
             "op_rel.p50": "ratio", "cmd_rel.p50": "ratio", "peak_rss_mb": "MB"}


def end_to_end(run: dict) -> dict[str, float]:
    """Every end-to-end figure; BENCHMARK.json names the gated ones."""
    plain = run["plain"]

    def stat(value) -> float:
        return pool_mean({k: [value(s) for s in v] for k, v in plain.items()})

    return {
        "setup_s": statistics.median(run["scaled_setups"]),
        "setup_raw_s": statistics.median(run["setups"]),
        "op_s.p50": stat(lambda s: s["result"]["op_s"]),
        "cmd_s.p50": stat(lambda s: s["cmd_s"]),
        "ref_s.p50": stat(lambda s: s["ref_s"]),
        "op_rel.p50": stat(lambda s: s["result"]["op_s"] / s["ref_s"]),
        "cmd_rel.p50": stat(lambda s: s["cmd_s"] / s["ref_s"]),
        "peak_rss_mb": stat(lambda s: s["result"]["rss_mb"]),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["traced"]
    names = next(iter(traced.values()))[0]["result"]["layers"]
    out = {name: pool_mean({k: [s["result"]["layers"][name] for s in v]
                            for k, v in traced.items()}) for name in names}
    op = pool_mean({k: [s["result"]["op_s"] for s in v] for k, v in traced.items()})
    out["trace.op_s.p50"] = op
    out["trace.overhead_s"] = op - end_to_end(run)["op_s.p50"]
    out["trace.span_coverage"] = pool_mean({
        k: [s["result"]["root_s"] / s["result"]["op_s"] for s in v] for k, v in traced.items()})
    return out


def sample_counts(run: dict, mode: str) -> str:
    sizes = [len(v) for v in run[mode].values()]
    return f"{sum(sizes)} ops over {len(sizes)} instances, {min(sizes, default=0)}+ each"


def result_line(run: dict, trace: bool, spec: dict) -> dict:
    """The benchmark's contract line; metrics named and ordered as in BENCHMARK.json."""
    ok = run["failed"] == 0 and run["attempted"] > 0
    metrics = {}
    if ok:
        values = per_layer(run) if trace else end_to_end(run)
        for m in spec["per_layer" if trace else "end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": ok, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def describe(run: dict, line: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    w = run["workload"]
    if trace:
        out = [f"{w} {name} {m['value']:.6g} {m['unit']}" for name, m in line["metrics"].items()]
    else:
        values = end_to_end(run) if line["correct"] else {}
        out = [f"{w} {name} {v:.6g} {E2E_UNITS[name]}" for name, v in values.items()]
    if not trace:
        out.append(f"{w} fail_frac {run['failed'] / max(run['attempted'], 1):.6g} ratio "
                   f"({run['failed']} of {run['attempted']} ops)")
        few = min((len(v) for v in run["plain"].values()), default=0)
        if few < 100:
            out.append(f"{w} op_s.p90 not reported: {few} ops per instance, fewer than 100")
        else:
            p90 = statistics.fmean(statistics.quantiles([s["result"]["op_s"] for s in v], n=10)[-1]
                                   for v in run["plain"].values())
            out.append(f"{w} op_s.p90 {p90:.6g} s")
        out.append(f"{w} samples: {sample_counts(run, 'plain')}; "
                   f"setup_s over {len(run['scaled_setups'])} probes, "
                   f"setup_raw_s over {len(run['setups'])} spawns")
    else:
        out.append(f"{w} traced samples: {sample_counts(run, 'traced')}")
    return out


def cache_gap() -> dict:
    """Cold first call versus warm repeat of one instance per workload, in one process."""
    picks = {"verify": {"m": 8}, "expand": {"m": 10, "variant": "sym"}, "kernel": {"m": 6},
             "character": {"m": 12, "n": 3}}
    out = {}
    WORK.mkdir(exist_ok=True)
    for workload, params in picks.items():
        spec = next(s for s in workloads.make_instances(workload, random.Random(0))
                    if s["params"] == params)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            sample = spawn({"workload": workload, "spec": spec, "trace": False,
                            "workdir": tmp, "repeat": 2}, Path(tmp))
        if sample["error"]:
            raise RuntimeError(f"{workload}: {sample['error']}")
        cold, warm = sample["result"]["op_times"]
        out[workload] = {"instance": spec["key"], "cold_s": round(cold, 3),
                         "warm_s": round(warm, 3)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, print a report")
    parser.add_argument("--out", help="with --all, also write the report as JSON here")
    parser.add_argument("--cache-gap", action="store_true",
                        help="measure cold versus warm op time per workload")
    args = parser.parse_args(argv)
    if not (SRC / "plethysm" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"no package sources under {SRC} or no {SPEC_FILE.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    if args.cache_gap:
        print(json.dumps(cache_gap(), indent=1))
        return 0
    if args.all:
        report = {"env": env, "seconds": seconds, "workloads": {}}
        ok = True
        for workload in workloads.NAMES:
            entry = {}
            for trace in (False, True):
                run = run_workload(workload, args.seed, seconds, trace)
                line = result_line(run, trace, spec)
                ok = ok and line["correct"]
                print("\n".join(describe(run, line, trace)), flush=True)
                entry["traced" if trace else "untraced"] = line
                if line["correct"] and not trace:
                    entry["end_to_end"] = end_to_end(run)
                    entry["fail_frac"] = run["failed"] / run["attempted"]
            report["workloads"][workload] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("give --workload, --all or --cache-gap")
    run = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    line = result_line(run, bool(args.trace), spec)
    print("\n".join(describe(run, line, bool(args.trace))))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
