"""Traced runs: spans around the public calls into each qmeasure module.

Tracing rebinds module attributes (``qmeasure.analysis.find_clusters``,
``qmeasure.runner.branch_decompose`` and so on) to wrappers that record a
span per call: name, start, end, parent span and scenario id.  Callers
look these names up in the module at call time, so nested calls are seen
too: ``ledger_record`` and ``check_environment`` call ``find_clusters``,
``inverse_imprint`` calls ``imprint``.  A layer's self time is its spans'
duration minus the time covered by their child spans.  No file of the
package changes; :meth:`Tracer.uninstall` restores every attribute.

Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import itertools
import json
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

#: (module, attribute, span name) for every rebinding.  The module is where
#: callers look the name up, which is not always where it is defined.
PATCHES = (
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("runner", "run", "runner.run"),
    ("runner", "product_state", "statevec.product_state"),
    ("runner", "make_ghz", "statevec.make_ghz"),
    ("runner", "tensor", "statevec.tensor"),
    ("runner", "branch_decompose", "statevec.branch_decompose"),
    ("gates", "imprint", "gates.imprint"),
    ("gates", "inverse_imprint", "gates.inverse_imprint"),
    ("gates", "swap", "gates.swap"),
    ("gates", "rotate_basis", "gates.rotate_basis"),
    ("protocol", "corrected_measure", "protocol.corrected_measure"),
    ("protocol", "check_environment", "protocol.check_environment"),
    ("protocol", "check_ready", "protocol.check_ready"),
    ("analysis", "find_clusters", "analysis.find_clusters"),
    ("analysis", "ledger_record", "analysis.ledger_record"),
    ("analysis", "agreement", "analysis.agreement"),
    ("analysis", "recover_record", "analysis.recover_record"),
    ("runner", "oracle_apply", "oracle.oracle_apply"),
)
KERNELS = ("gates.imprint", "gates.swap", "gates.rotate_basis")
BUILDERS = ("statevec.product_state", "statevec.make_ghz", "statevec.tensor")


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    scenario: str
    facts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder for one traced run; install() rebinds, uninstall() restores."""

    def __init__(self, qm) -> None:
        self.qm = qm
        self.spans: list[Span] = []
        self.scenario = ""
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in PATCHES:
            module = getattr(self.qm, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        render = self.qm.runner.Report.render_text
        self._saved.append((self.qm.runner.Report, "render_text", render))
        self.qm.runner.Report.render_text = self._wrap(render, "runner.render_text")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        facts_of = _FACTS.get(name)
        measure_memory = name == "analysis.find_clusters"

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter_ns()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                facts = {}
                if measure_memory:
                    facts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if error is not None:
                    facts["error"] = type(error).__name__
                elif facts_of is not None:
                    facts.update(facts_of(args, kwargs, result))
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.scenario, facts))

        return wrapper

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                out.write(json.dumps([s.sid, s.name, s.start_ns, s.end_ns, s.parent,
                                      s.scenario, s.facts]) + "\n")


def _kernel_facts(args, kwargs, result):
    return {"n": result.n_qubits}


def _branch_facts(args, kwargs, result):
    return {"listed": len(result.branches), "dim": 2 ** len(result.register)}


def _cluster_facts(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-9)
    support = int(np.count_nonzero(np.abs(state.amplitudes) > tol))
    return {"support": support, "residual": len(result.residual)}


def _render_facts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


_FACTS = {
    **{name: _kernel_facts for name in KERNELS},
    "statevec.branch_decompose": _branch_facts,
    "analysis.find_clusters": _cluster_facts,
    "runner.render_text": _render_facts,
}


def _child_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> nanoseconds covered by its direct children (calls never overlap)."""
    covered: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0) + s.end_ns - s.start_ns
    return covered


def layer_metrics(spans: list[Span], scenarios: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced scenario unless the unit says otherwise."""
    child_ns = _child_ns(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        dur = (s.end_ns - s.start_ns) / 1e9
        total[s.name] = total.get(s.name, 0.0) + dur
        own[s.name] = own.get(s.name, 0.0) + dur - child_ns.get(s.sid, 0) / 1e9
        calls[s.name] = calls.get(s.name, 0) + 1
        by_name.setdefault(s.name, []).append(s)

    per = max(scenarios, 1)

    def t(name: str, which=total) -> float:
        return which.get(name, 0.0) / per

    def fact_sum(name: str, key: str) -> int:
        return sum(s.facts.get(key, 0) for s in by_name.get(name, ()))

    kernel_s = sum(own.get(k, 0.0) for k in KERNELS)
    kernel_calls = sum(calls.get(k, 0) for k in KERNELS)
    kernel_bytes = sum(
        2 * 16 * 2 ** s.facts["n"] for k in KERNELS for s in by_name.get(k, ()) if "n" in s.facts
    )
    listed = fact_sum("statevec.branch_decompose", "listed")
    dims = fact_sum("statevec.branch_decompose", "dim")
    peaks = [s.facts["peak_bytes"] for s in by_name.get("analysis.find_clusters", ())]
    rejections = sum(
        s.facts.get("error") == "EnvironmentNotGHZError"
        for s in by_name.get("protocol.check_environment", ())
    )
    per_s, per_n = "s/scenario", "count/scenario"
    return {
        "scenario.parse_s": (t("scenario.parse_scenario"), per_s),
        "statevec.build_s": (sum(t(b) for b in BUILDERS), per_s),
        "statevec.branch_decompose_s": (t("statevec.branch_decompose"), per_s),
        "statevec.branches_listed": (listed / per, per_n),
        "statevec.support_fraction": (listed / dims if dims else 0.0, "ratio"),
        "gates.kernel_s": (kernel_s / per, per_s),
        "gates.calls": (kernel_calls / per, per_n),
        "gates.bytes_computed": (kernel_bytes / per, "B/scenario"),
        "gates.gbps_computed": (kernel_bytes / kernel_s / 1e9 if kernel_s else 0.0, "GB/s"),
        "protocol.check_environment_self_s": (t("protocol.check_environment", own), per_s),
        "protocol.corrected_measure_self_s": (t("protocol.corrected_measure", own), per_s),
        "protocol.check_ready_s": (t("protocol.check_ready"), per_s),
        "protocol.env_rejections": (rejections / per, per_n),
        "analysis.find_clusters_s": (t("analysis.find_clusters"), per_s),
        "analysis.find_clusters_calls": (calls.get("analysis.find_clusters", 0) / per, per_n),
        "analysis.support_columns": (fact_sum("analysis.find_clusters", "support") / per, per_n),
        "analysis.residual_labels": (fact_sum("analysis.find_clusters", "residual") / per, per_n),
        "analysis.find_clusters_peak_mib": (max(peaks) / 2**20 if peaks else 0.0, "MiB"),
        "analysis.ledger_record_self_s": (t("analysis.ledger_record", own), per_s),
        "analysis.agreement_s": (t("analysis.agreement"), per_s),
        "analysis.recover_record_s": (t("analysis.recover_record"), per_s),
        "runner.run_self_s": (t("runner.run", own), per_s),
        "runner.render_s": (t("runner.render_text"), per_s),
        "runner.report_bytes": (fact_sum("runner.render_text", "bytes") / per, "B/scenario"),
        "oracle.apply_s": (t("oracle.oracle_apply"), per_s),
        "oracle.calls": (calls.get("oracle.oracle_apply", 0) / per, per_n),
    }


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each span name as a share of all traced scenario time."""
    child_ns = _child_ns(spans)
    own: dict[str, int] = {}
    for s in spans:
        own[s.name] = own.get(s.name, 0) + s.end_ns - s.start_ns - child_ns.get(s.sid, 0)
    whole = sum(own.values()) or 1
    return {name: ns / whole for name, ns in sorted(own.items(), key=lambda kv: -kv[1])}
