"""Per-layer tracing of the engine from outside it.

Each traced function is replaced, in every twosquares module that holds
a reference to it, by a wrapper that records a span.  Wrapping where a
function is looked up (twosquares.represent.scan_branch,
twosquares.certify.representations, twosquares.cli.render_scan_table,
...) is what catches calls made from inside the engine.  A function that
no longer exists is reported as absent instead of failing the run.

Counters that need the call's arguments or result (rows, hits, leaves,
rejects, bytes) run after the call in a "bench.count" span, so their
cost is the benchmark's own time and not the caller's self time.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# span name -> (defining module, function name)
TRACED = {
    "cli": ("twosquares.cli", "main"),
    "classify": ("twosquares.classify", "classify"),
    "certify.decide": ("twosquares.certify", "decide"),
    "certify.verify": ("twosquares.certify", "verify"),
    "certify.to_json": ("twosquares.certify", "certificate_to_json"),
    "certify.from_json": ("twosquares.certify", "certificate_from_json"),
    "represent.representations": ("twosquares.represent", "representations"),
    "represent.oracle": ("twosquares.represent", "oracle_representations"),
    "scan.expand_branches": ("twosquares.scan", "expand_branches"),
    "scan.scan_branch": ("twosquares.scan", "scan_branch"),
    "scan.recover_xy": ("twosquares.scan", "recover_xy"),
    "factorize.factor_with_witness": ("twosquares.factorize", "factor_with_witness"),
    "report.render_difference_table": ("twosquares.report", "render_difference_table"),
    "report.render_scan_table": ("twosquares.report", "render_scan_table"),
    "report.sweep_csv": ("twosquares.report", "sweep_csv"),
}


def import_engine():
    """Import every twosquares module afresh; returns the cli and certify
    modules, the entry points the workloads call."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "twosquares" or m.startswith("twosquares.")]:
        del sys.modules[name]
    importlib.import_module("twosquares")
    return importlib.import_module("twosquares.cli"), importlib.import_module("twosquares.certify")


def nonnegative_rows(m: int, beta: int, gamma: int) -> int:
    """Number of integers t with Q(t) = m - beta*t - gamma*t^2 >= 0, gamma > 0.

    4*gamma*Q(t) = (beta^2 + 4*gamma*m) - (2*gamma*t + beta)^2, so Q(t) >= 0
    exactly when |2*gamma*t + beta| <= isqrt(beta^2 + 4*gamma*m).
    """
    disc = beta * beta + 4 * gamma * m
    if disc < 0:
        return 0
    r = math.isqrt(disc)
    lo = -((r + beta) // (2 * gamma))
    hi = (r - beta) // (2 * gamma)
    return max(0, hi - lo + 1)


class LayerTrace:
    """Installs span-recording wrappers and keeps the layer counters."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._hooks = {
            "scan.expand_branches": self._count_leaves,
            "scan.scan_branch": self._count_rows,
            "represent.oracle": self._count_oracle_rows,
            "certify.verify": self._count_rejects,
            "report.render_difference_table": self._count_bytes,
            "report.render_scan_table": self._count_bytes,
            "report.sweep_csv": self._count_bytes,
        }

    # -- counters ---------------------------------------------------------

    def _count_leaves(self, args, leaves) -> None:
        self.counts["scan.leaves"] += len(leaves)
        for leaf in leaves:
            if leaf.prune_reason is not None:
                self.counts[f"scan.leaves_pruned.{leaf.prune_reason.value}"] += 1

    def _count_rows(self, args, result) -> None:
        q = args[0].quadratic
        self.counts["scan.rows"] += nonnegative_rows(q.m, q.beta, q.gamma)
        # today scan_branch returns (hits, rows); a hits-only kernel returns hits
        hits, rows = result if isinstance(result, tuple) else (result, None)
        self.counts["scan.hits"] += len(hits)
        if rows is None:
            self.absent["scan.rows_returned"] = "scan_branch returns no rows"
        else:
            self.counts["scan.rows_returned"] += len(rows)

    def _count_oracle_rows(self, args, result) -> None:
        # the oracle tests n - b^2 for every b in [0, isqrt(n // 2)]
        self.counts["represent.oracle.rows"] += math.isqrt(args[0] // 2) + 1

    def _count_rejects(self, args, ok) -> None:
        self.counts["certify.verify.rejects"] += ok is False

    def _count_bytes(self, args, text) -> None:
        self.counts["report.bytes"] += len(text.encode())

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, hook = self.tracer, self._hooks.get(name)

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish()
            if hook is not None:
                tracer.begin("bench.count")
                try:
                    hook(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    self.absent[f"{name} counters"] = f"counter failed: {exc!r}"
                finally:
                    tracer.finish()
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "twosquares" or n.startswith("twosquares.")]
        for name, (module_name, attr) in TRACED.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.absent[name] = f"{module_name}.{attr} does not exist"
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._installed.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._installed):
            setattr(module, key, fn)
        self._installed.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self, ops: int, traced_wall: float, overhead_ratio: float) -> dict:
        """Per-layer metrics, normalized per benchmark operation.

        traced_wall is the wall time of the traced passes; overhead_ratio
        is their call time over that of the untraced passes.

        Returns {name: (value or None when absent, unit)}.
        """
        self_s, calls = self.tracer.totals()
        counts = self.counts
        out: dict[str, tuple[float | None, str]] = {}

        def put(metric: str, value: float, unit: str, *sources: str) -> None:
            missing = [s for s in sources if s in self.absent]
            out[metric] = (None, unit) if missing else (value, unit)

        def rate(num: float, den: float) -> float:
            return num / den if den else 0.0

        # a counter is absent when its function or its counting hook is
        scan = ("scan.scan_branch", "scan.scan_branch counters")
        leaves = ("scan.expand_branches", "scan.expand_branches counters")
        oracle = ("represent.oracle", "represent.oracle counters")
        verify = ("certify.verify", "certify.verify counters")
        for name in TRACED:
            put(f"{name}.self_s", self_s.get(name, 0.0) / ops, "s/op", name)
        for name in ("classify", "represent.representations", "factorize.factor_with_witness"):
            put(f"{name}.calls", calls.get(name, 0) / ops, "count/op", name)
        put("scan.rows", counts["scan.rows"] / ops, "count/op", *scan)
        put("scan.rows_returned", counts["scan.rows_returned"] / ops, "count/op",
            *scan, "scan.rows_returned")
        put("scan.rows_per_s", rate(counts["scan.rows"], self_s.get(scan[0], 0.0)), "1/s",
            *scan)
        put("scan.hits", counts["scan.hits"] / ops, "count/op", *scan)
        put("scan.hit_ratio", rate(counts["scan.hits"], counts["scan.rows"]), "ratio", *scan)
        put("scan.leaves", counts["scan.leaves"] / ops, "count/op", *leaves)
        put("scan.leaves_scanned", calls.get(scan[0], 0) / ops, "count/op", scan[0])
        for reason in ("always_five_mod_8", "oddly_even", "other_non_residue"):
            put(f"scan.leaves_pruned.{reason}", counts[f"scan.leaves_pruned.{reason}"] / ops,
                "count/op", *leaves)
        put("represent.oracle.rows", counts["represent.oracle.rows"] / ops, "count/op", *oracle)
        put("represent.oracle.rows_per_s",
            rate(counts["represent.oracle.rows"], self_s.get(oracle[0], 0.0)), "1/s", *oracle)
        put("certify.verify.rejects", counts["certify.verify.rejects"] / ops, "count/op",
            *verify)
        put("report.bytes", counts["report.bytes"] / ops, "B/op")
        bench_s = sum(v for k, v in self_s.items() if k.startswith("bench."))
        put("bench.self_s", bench_s / ops, "s/op")
        put("trace.overhead_ratio", overhead_ratio, "ratio")
        put("trace.remainder_share",
            rate(traced_wall - self.tracer.top_level_seconds(), traced_wall), "ratio")
        return out
