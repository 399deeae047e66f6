"""One op in a fresh interpreter: python3 perfbench/child.py '<job json>'.

The job names the workload, the instance, whether to trace, a work directory
and a result path.  The first statement imports the package, so the time from
spawn to READY_NS is what a command-line user pays before any work starts.
A probe job runs no op: it measures set-up and then times `reference_work`,
which tracks the machine's speed.  The op's output is written to the result
file for the parent to check; an exception propagates, so the process exits
non-zero and the op counts as failed.
"""

import time

import plethysm  # noqa: F401  (the import is what set-up time measures)

READY_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def reference_work() -> float:
    """Seconds for a fixed sparse product over tuple keys and big integers.

    It shares no code with the package, so a change to the package cannot
    move it; only the machine's speed at the moment does.
    """
    a = {(i, j, i * j % 5): (i + 1) * 3 ** 20 + j for i in range(30) for j in range(10)}
    b = {(i, (i + j) % 7, j): 2 ** 40 - i * j for i in range(10) for j in range(25)}
    start = time.perf_counter()
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + ca * cb
    json.dumps([{"coeff": str(c), "exps": list(k)} for k, c in sorted(out.items())], indent=2)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak resident set since exec, from VmHWM.

    getrusage would also count the parent's peak, which Linux carries into
    the child's maximum across fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    job = json.loads(sys.argv[1])
    result = {"ready_ns": READY_NS}
    workload = job.get("workload")
    if job.get("probe"):
        result["ref_s"] = reference_work()
    elif workload:
        import tracing
        import workloads

        op = workloads.OPS[workload]
        workdir = Path(job["workdir"])
        tracer = restore = None
        if job["trace"]:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        times = []
        for _ in range(job.get("repeat", 1)):
            start = time.perf_counter()
            output = op(job["spec"], workdir)
            times.append(time.perf_counter() - start)
        if restore is not None:
            restore()
            result["layers"] = tracer.layer_metrics()
            result["root_s"] = tracer.root_ns() / 1e9
        result.update(op_s=times[0], op_times=times, output=output, rss_mb=peak_rss_mb())
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
