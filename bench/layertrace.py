"""Per-layer spans and counts for the bscontrol benchmark, recorded from outside.

`Tracer.installed()` wraps, for the duration of a `with` block, the public
functions of each bscontrol layer (cli, weights, solvers, fi, insensitize)
wherever the package binds them, the scipy entry points as the layer's module
binds them (`solve_banded`/`solveh_banded` in `bscontrol.solvers`, `splu` in
`bscontrol.fi`) and the two `FISolver` methods.  Leaving the block restores
every patched name.  No file of the package changes.

Each wrapped call is a span: name, start, end and the span that caused it.
A span's self time is its duration minus the time its child spans cover.
The spans of one task stay in memory until `task_metrics` folds them into
the per-layer metrics of that task.  `geometry` only runs inside
`build_setup` and inside other layers' calls and costs under 1% of every
workload, so it has no spans of its own.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def unit(metric: str) -> str:
    """Per-layer metrics ending in `_s` are seconds; the others are counts."""
    return "s" if metric.endswith("_s") else "count"


# counts that must repeat exactly when the same task runs again on the same code
EXACT_COUNTS = ("fi.dofs", "fi.lu_nnz", "fi.factorizations",
                "insensitize.outer_iters", "solvers.banded_solves",
                "weights.carleman_functional_calls")

# (defining module, function, span name): patched in every bscontrol module
# that binds the function, so calls through any import path are seen
LAYER_FUNCTIONS = (
    ("bscontrol.cli", "build_setup", "cli.setup"),
    ("bscontrol.cli", "write_json", "cli.output"),
    ("bscontrol.cli", "write_csv", "cli.output"),
    ("bscontrol.solvers", "dump_trajectory_csv", "cli.output"),
    ("bscontrol.weights", "dump_weight_csv", "cli.output"),
    ("bscontrol.weights", "carleman_functional_I", "weights.carleman_functional"),
    ("bscontrol.weights", "carleman_functional_Jw", "weights.carleman_functional"),
    ("bscontrol.weights", "empirical_carleman_check", "weights.carleman_check"),
    ("bscontrol.solvers", "solve_quasilinear", "solvers.quasilinear"),
    ("bscontrol.solvers", "solve_quasilinear_cascade", "solvers.quasi_cascade"),
    ("bscontrol.solvers", "solve_linearized_cascade", "solvers.linear_cascade"),
    ("bscontrol.solvers", "solve_adjoint_cascade", "solvers.linear_cascade"),
    ("bscontrol.insensitize", "synthesize", "insensitize.synthesize"),
    ("bscontrol.insensitize", "evaluate_J", "insensitize.evaluate_J"),
    ("bscontrol.insensitize", "insensitivity_check", "insensitize.check"),
)

# (module, name, span name): scipy entry points, patched only where the layer
# binds them
SCIPY_BINDINGS = (
    ("bscontrol.solvers", "solve_banded", "solvers.banded"),
    ("bscontrol.solvers", "solveh_banded", "solvers.banded"),
)


class _TracedFactor:
    """Stands in for a SuperLU factor so that each triangular solve is a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, "fi.trisolve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, fn, name: str, after=None):
        """`fn` recording a span `name`; `after(args, result)` may replace the result."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, open_[-1] if open_ else -1]
            spans.append(rec)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                open_.pop()
            return result if after is None else after(args, result)
        return traced

    # --- hooks reading counts at the boundaries --------------------------

    def _after_factorize(self, args, lu):
        self.counts["fi.lu_nnz"] = lu.L.nnz + lu.U.nnz
        return _TracedFactor(lu, self)

    def _after_assemble(self, args, result):
        D = args[0].D
        self.counts["fi.dofs"] = D.size
        self.counts["fi.live_dofs"] = int((D != 0).sum())
        return result

    def _after_synthesize(self, args, report):
        self.counts["insensitize.outer_iters"] = (
            self.counts.get("insensitize.outer_iters", 0) + report.iterations)
        return report

    # --- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced name for the block; restore all of them after."""
        self.reset()
        package = [m for name, m in list(sys.modules.items())
                   if name == "bscontrol" or name.startswith("bscontrol.")]
        fi = sys.modules["bscontrol.fi"]
        hooks = {"insensitize.synthesize": self._after_synthesize}
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            for modname, attr, span in LAYER_FUNCTIONS:
                original = getattr(sys.modules[modname], attr)
                wrapper = self.wrap(original, span, hooks.get(span))
                for mod in package:
                    if mod.__dict__.get(attr) is original:
                        patch(mod, attr, wrapper)
            for modname, attr, span in SCIPY_BINDINGS:
                mod = sys.modules[modname]
                patch(mod, attr, self.wrap(getattr(mod, attr), span))
            patch(fi, "splu", self.wrap(fi.splu, "fi.factorize", self._after_factorize))
            cls = fi.FISolver
            patch(cls, "__init__",
                  self.wrap(cls.__init__, "fi.assemble", self._after_assemble))
            patch(cls, "solve", self.wrap(cls.solve, "fi.solve"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- folding spans into metrics ----------------------------------------

    def task_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since `installed`."""
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        c = self.counts
        return {
            "cli.setup_s": total["cli.setup"],
            "cli.output_s": total["cli.output"],
            "weights.carleman_functional_s": total["weights.carleman_functional"],
            "weights.carleman_functional_calls": calls["weights.carleman_functional"],
            "weights.carleman_check_self_s": own["weights.carleman_check"],
            "solvers.quasilinear_s": total["solvers.quasilinear"],
            "solvers.quasilinear_calls": calls["solvers.quasilinear"],
            "solvers.quasi_cascade_s": total["solvers.quasi_cascade"],
            "solvers.banded_solves": calls["solvers.banded"],
            "solvers.banded_s": total["solvers.banded"],
            "solvers.linear_cascade_s": total["solvers.linear_cascade"],
            "solvers.linear_cascade_calls": calls["solvers.linear_cascade"],
            "fi.assemble_s": total["fi.assemble"],
            "fi.factorize_s": total["fi.factorize"],
            "fi.factorizations": calls["fi.factorize"],
            "fi.lu_nnz": c.get("fi.lu_nnz", 0),
            "fi.dofs": c.get("fi.dofs", 0),
            "fi.live_dofs": c.get("fi.live_dofs", 0),
            "fi.trisolve_s": total["fi.trisolve"],
            "fi.trisolves": calls["fi.trisolve"],
            "fi.solve_self_s": own["fi.solve"],
            "fi.solves": calls["fi.solve"],
            "insensitize.outer_iters": c.get("insensitize.outer_iters", 0),
            "insensitize.synthesize_self_s": own["insensitize.synthesize"],
            "insensitize.evaluate_J_s": total["insensitize.evaluate_J"],
            "insensitize.evaluate_J_calls": calls["insensitize.evaluate_J"],
            "insensitize.check_self_s": own["insensitize.check"],
        }
