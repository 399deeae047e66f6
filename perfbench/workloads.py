"""The four workloads: their instance pools, the op a child process runs, and
the parent's check of that op's output.

Ops run in a fresh interpreter (see child.py); checks run in the benchmark's
own process, after the op has exited, so their cost never enters op_s.  Every
check compares against a reference that shares no code with the path under
test: the closed-form multiplicity `hwv.multiplicity_closed_form`, the sha256
of the JSON the seed commit emitted, or the fixed list of verify checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
NAMES = ("verify", "expand", "kernel", "character")
KERNEL_MAX_DIM = 2000


def instance_key(workload: str, params: dict) -> str:
    """Names one instance independently of the order of its sub-cases."""
    return workload + ":" + ",".join(f"{k}={params[k]}" for k in sorted(params))


def partitions3(total: int) -> list[tuple[int, ...]]:
    """Partitions of `total` into at most three parts, zeros stripped."""
    out = []
    for l1 in range(total, -1, -1):
        for l2 in range(min(l1, total - l1), -1, -1):
            l3 = total - l1 - l2
            if l3 <= l2:
                out.append(tuple(p for p in (l1, l2, l3) if p))
    return out


def make_instances(workload: str, rng: random.Random) -> list[dict]:
    """The workload's pool in a seeded order, each with seeded sub-case order.

    Every op runs one instance; a run cycles through all of them so that its
    figures do not depend on which instance a seed would have picked.  Ops
    always take sym before alt.
    """
    instances = []
    for params in DATA["pools"][workload]:
        spec = {"params": dict(params), "key": instance_key(workload, params)}
        if workload == "kernel":
            cases = []
            for variant in ("sym", "alt"):
                shapes = partitions3(3 * params["m"])
                rng.shuffle(shapes)
                cases.extend([variant, list(shape)] for shape in shapes)
            spec["cases"] = cases
        instances.append(spec)
    rng.shuffle(instances)
    return instances


# ---------------------------------------------------------------------------
# ops, run inside the child after `import plethysm`; each returns plain JSON


def op_verify(spec: dict, workdir: Path) -> dict:
    from plethysm import verify

    results = verify.run_verification(m_max=spec["params"]["m"], n=3)
    return {"passed": all(r.passed for r in results), "names": [r.name for r in results]}


def op_expand(spec: dict, workdir: Path) -> dict:
    from plethysm import cli

    m, variant = spec["params"]["m"], spec["params"]["variant"]
    return {"exit_code": cli.main([
        "decompose", "--m", str(m), "--variant", variant, "--expand",
        "--format", "json", "--output", str(workdir / "out.json"),
    ])}


def op_kernel(spec: dict, workdir: Path) -> dict:
    from plethysm import oracle

    m = spec["params"]["m"]
    return {"mults": [
        [variant, shape,
         oracle.hwv_kernel_multiplicity(m, 3, tuple(shape), variant,
                                        max_dim=KERNEL_MAX_DIM)]
        for variant, shape in spec["cases"]
    ]}


def op_character(spec: dict, workdir: Path) -> dict:
    from plethysm import oracle

    m, n = spec["params"]["m"], spec["params"]["n"]
    out = {}
    for variant in ("sym", "alt"):
        mults = oracle.multiplicities_by_kostka(m, n, variant)
        out[variant] = [[list(d), mult] for d, mult in mults.items()]
    return {"mults": out}


OPS = {"verify": op_verify, "expand": op_expand, "kernel": op_kernel,
       "character": op_character}


# ---------------------------------------------------------------------------
# checks, run in the benchmark's process; each returns None or a reason


def expected_mults(m: int, variant: str) -> dict[tuple[int, ...], int]:
    from plethysm.hwv import multiplicity_closed_form

    table = {}
    for shape in partitions3(3 * m):
        value = multiplicity_closed_form(shape, variant)
        if value:
            table[shape] = value
    return table


def check_verify(spec: dict, output: dict, workdir: Path) -> str | None:
    if output.get("names") != DATA["verify_check_names"]:
        return f"check names differ: {output.get('names')}"
    if output.get("passed") is not True:
        return "verification did not pass"
    return None


def check_expand(spec: dict, output: dict, workdir: Path) -> str | None:
    m, variant = spec["params"]["m"], spec["params"]["variant"]
    if output.get("exit_code") != 0:
        return f"exit code {output.get('exit_code')}"
    path = workdir / "out.json"
    if not path.is_file():
        return "no output file"
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != DATA["expand_sha256"][str(m)][variant]:
        return f"sha256 {digest} differs from the seed commit's"
    entries = json.loads(data)["entries"]
    found = {tuple(e["diagram"]): e["multiplicity"] for e in entries}
    if found != expected_mults(m, variant):
        return "multiplicities differ from the closed form"
    if any(len(e["words"]) != e["multiplicity"]
           or any("polynomial" not in w for w in e["words"]) for e in entries):
        return "an entry lacks its words or polynomials"
    return None


def check_kernel(spec: dict, output: dict, workdir: Path) -> str | None:
    m = spec["params"]["m"]
    got = output.get("mults", [])
    if [[v, s] for v, s, _ in got] != spec["cases"]:
        return "the op did not answer every (variant, shape) case in order"
    expected = {v: expected_mults(m, v) for v in ("sym", "alt")}
    for variant, shape, value in got:
        want = expected[variant].get(tuple(shape), 0)
        if value != want:
            return f"{variant} {shape}: kernel {value}, closed form {want}"
    return None


def check_character(spec: dict, output: dict, workdir: Path) -> str | None:
    m = spec["params"]["m"]
    got = output.get("mults", {})
    if sorted(got) != ["alt", "sym"]:
        return f"variants answered: {sorted(got)}"
    for variant, pairs in got.items():
        found = {tuple(d): mult for d, mult in pairs}
        if found != expected_mults(m, variant):
            return f"{variant}: multiplicities differ from the closed form"
    return None


CHECKS = {"verify": check_verify, "expand": check_expand, "kernel": check_kernel,
          "character": check_character}
