"""Spans and counters at the package's layer boundaries, for traced ops only.

`install` replaces the module and class attributes through which one layer
calls the next with wrappers that record a span per call.  A name is wrapped
where the caller looks it up: `oracle` binds `raising_operator` and `kostka`
at import, so `plethysm.oracle.raising_operator` is wrapped as well as
`plethysm.actions.raising_operator`, and `cli` reaches `json.dumps` through
its own `json` attribute, which gets a proxy module.

Spans stay in memory; `Tracer.layer_metrics` turns them into per-op figures
after the op has finished.  A span's self time is its duration minus the
durations of its direct children.  Counts that cost more than a `len` are
deferred to that point too, so they do not inflate any span.
"""

from __future__ import annotations

import json
import os
import types
from time import perf_counter_ns

VERIFY_CHECKS = (
    "check_generators_un_invariant",
    "check_generators_symmetry_type",
    "check_generator_grades_weights",
    "check_leading_monomial_table",
    "check_word_leading_monomials",
    "check_discriminant",
    "check_phi_images",
    "check_golden_tables",
    "check_against_kostka_oracle",
    "check_against_kernel_oracle",
    "check_closed_form",
    "check_kostka_closed_form",
    "check_standard_monomials",
    "check_k2",
    "check_schur_weyl_degree_one",
    "check_specht_images",
    "check_dimension_conservation",
)

SPANS = (
    "hwv.expand", "hwv.decompose",
    "polynomials.to_json_obj", "polynomials.leading_monomial",
    "cli.main", "cli.json_dumps", "cli.emit",
    "actions.raising_operator",
    "oracle.hwv_kernel_multiplicity", "oracle.isotypic_weight_basis",
    "oracle.rank_of_integer_matrix", "oracle.weight_table_plethysm",
    "oracle.multiplicities_by_kostka",
    "tableaux.kostka",
    "verify.run_verification",
) + tuple(f"verify.{name}" for name in VERIFY_CHECKS)

# Counts that must repeat exactly for a given instance and source tree.
COUNTS = (
    "hwv.expand.calls", "hwv.expand.terms",
    "polynomials.to_json_obj.terms",
    "cli.output_bytes",
    "actions.raising_operator.calls", "actions.raising_operator.terms_in",
    "actions.raising_operator.terms_out",
    "oracle.basis_dim", "oracle.orbits_built",
    "oracle.rank_of_integer_matrix.rows", "oracle.rank_of_integer_matrix.cols",
    "oracle.rank_of_integer_matrix.rank",
    "oracle.weight_table_plethysm.triples", "oracle.weight_table_plethysm.weights",
    "oracle.multiplicities_by_kostka.dominant_weights",
    "tableaux.kostka.calls",
)

CALL_COUNTS = {"hwv.expand.calls": "hwv.expand",
               "actions.raising_operator.calls": "actions.raising_operator",
               "tableaux.kostka.calls": "tableaux.kostka"}


class Tracer:
    """Records spans as [name, parent index, start ns, end ns] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._deferred: list = []

    def wrap(self, name, fn, count=None, defer=None):
        spans, stack, counts, deferred = self.spans, self._stack, self.counts, self._deferred

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else None, 0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            if defer is not None:
                deferred.append((defer, args, result))
            return result

        return wrapper

    def self_times_ns(self) -> list[int]:
        """Per-span self time, aligned with `spans`."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def root_ns(self) -> int:
        return sum(end - start for _, parent, start, end in self.spans if parent is None)

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self times, counts and ratios, every name always present."""
        for fn, args, result in self._deferred:
            for key, value in fn(args, result).items():
                self.counts[key] += value
        self._deferred.clear()
        self_ns = dict.fromkeys(SPANS, 0)
        for (name, *_), own in zip(self.spans, self.self_times_ns()):
            self_ns[name] += own
        calls = dict.fromkeys(SPANS, 0)
        for name, *_ in self.spans:
            calls[name] += 1
        for key, span in CALL_COUNTS.items():
            self.counts[key] = calls[span]
        c = self.counts
        out = {f"{name}.self_s": ns / 1e9 for name, ns in self_ns.items()}
        out.update(c)
        out["oracle.orbits_kept_frac"] = _ratio(c["oracle.basis_dim"], c["oracle.orbits_built"])
        out["oracle.rank_of_integer_matrix.rank_per_row"] = _ratio(
            c["oracle.rank_of_integer_matrix.rank"], c["oracle.rank_of_integer_matrix.rows"])
        out["oracle.dominant_weight_frac"] = _ratio(
            c["oracle.multiplicities_by_kostka.dominant_weights"],
            c["oracle.weight_table_plethysm.weights"])
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# what each boundary counts


def _terms(key):
    return lambda args, result: {key: len(result)}


def _raising(args, result):
    return {"actions.raising_operator.terms_in": len(args[0]),
            "actions.raising_operator.terms_out": len(result)}


def _emit(args, result):
    text, output = args
    size = os.path.getsize(output) if output else len(text.encode("utf-8"))
    return {"cli.output_bytes": size}


def _basis(args, result):
    return {"oracle.basis_dim": len(result)}


def _orbits(args, result):
    from plethysm import oracle

    m, n, weight, _ = args
    built = {tuple(sorted(cols)) for cols in oracle._exponent_matrices(m, n, weight)}
    return {"oracle.orbits_built": len(built)}


def _rank(args, result):
    rows = args[0]
    return {"oracle.rank_of_integer_matrix.rows": len(rows),
            "oracle.rank_of_integer_matrix.cols": len(rows[0]) if rows else 0,
            "oracle.rank_of_integer_matrix.rank": result}


def _weight_table(args, result):
    n = args[1]
    dominant = sum(all(w[i] >= w[i + 1] for i in range(n - 1)) for w in result)
    return {"oracle.weight_table_plethysm.triples": sum(result.values()),
            "oracle.weight_table_plethysm.weights": len(result),
            "oracle.multiplicities_by_kostka.dominant_weights": dominant}


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that undoes it."""
    from plethysm import actions, cli, hwv, oracle, polynomials, tableaux, verify

    patches = [
        (verify, "run_verification", "verify.run_verification", None, None),
        *[(verify, name, f"verify.{name}", None, None) for name in VERIFY_CHECKS],
        (cli, "main", "cli.main", None, None),
        (cli, "_emit", "cli.emit", _emit, None),
        (hwv, "decompose", "hwv.decompose", None, None),
        (hwv.GeneratorWord, "expand", "hwv.expand", _terms("hwv.expand.terms"), None),
        (polynomials.Polynomial, "to_json_obj", "polynomials.to_json_obj",
         _terms("polynomials.to_json_obj.terms"), None),
        (polynomials.Polynomial, "leading_monomial", "polynomials.leading_monomial",
         None, None),
        (actions, "raising_operator", "actions.raising_operator", _raising, None),
        (oracle, "raising_operator", "actions.raising_operator", _raising, None),
        (oracle, "hwv_kernel_multiplicity", "oracle.hwv_kernel_multiplicity", None, None),
        (oracle, "_isotypic_weight_basis", "oracle.isotypic_weight_basis", _basis, _orbits),
        (oracle, "rank_of_integer_matrix", "oracle.rank_of_integer_matrix", _rank, None),
        (oracle, "weight_table_plethysm", "oracle.weight_table_plethysm", None,
         _weight_table),
        (oracle, "multiplicities_by_kostka", "oracle.multiplicities_by_kostka", None, None),
        (oracle, "kostka", "tableaux.kostka", None, None),
        (tableaux, "kostka", "tableaux.kostka", None, None),
    ]
    saved = []
    for owner, attr, name, count, defer in patches:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count, defer))
    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__)
    proxy.dumps = tracer.wrap("cli.json_dumps", json.dumps)
    saved.append((cli, "json", cli.json))
    cli.json = proxy

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
