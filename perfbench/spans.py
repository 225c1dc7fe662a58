"""Outside-in per-layer tracing of the evolal pipeline.

The tracer replaces public functions of the evolal modules with timing
wrappers, in every namespace that holds them (a function imported into
three modules is replaced in all three by one wrapper for its layer),
and methods of the policy network and its optimizer with bare call
counters. Spans
(layer, start, end, parent, request) are kept in memory; `remove` puts
every original object back and verifies it. Nothing inside `src/` is
changed.

Per-layer figures come from the spans (calls, inclusive seconds, self
seconds) and from the objects the layers return (iteration counts,
convergence flags), so no private function is wrapped.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (layer, module, public function): one span per call
SPANNED = (
    ("ingest.parse", "evolal.ingest", "parse_dataset"),
    ("core.window", "evolal.core", "window_trajectory"),
    ("partition.fit", "evolal.partition", "fit_partition"),
    ("partition.admm", "evolal.partition", "fit_inverse_covariance"),
    ("partition.assign", "evolal.partition", "assign_labels"),
    ("edm.train", "evolal.edm", "train_edm"),
    ("edm.sgld", "evolal.edm", "sgld_negatives"),
    ("emedm.fit", "evolal.emedm", "fit_mixture"),
    ("emedm.e_step", "evolal.emedm", "e_step"),
    ("emedm.demo_loglik", "evolal.emedm", "demo_loglik"),
    ("emedm.predict", "evolal.emedm", "predict_stepwise"),
    ("hlirl.fit", "evolal.hlirl", "fit_ml_irl"),
    ("hlirl.vi", "evolal.hlirl", "value_iteration"),
    ("themes.fit", "evolal.themes", "fit_themes"),
    ("themes.predict", "evolal.themes", "predict_themes"),
    ("evaluation.evaluate_on", "evolal.evaluation", "evaluate_on"),
    ("baselines.bc", "evolal.baselines", "train_bc"),
)

# (metric, module, class, method): counted, never timed, because these
# run millions of times per request
COUNTED = (
    ("policynet.forward.calls", "evolal.policynet", "PolicyNet", "forward"),
    ("policynet.backward.calls", "evolal.policynet", "PolicyNet",
     "backward"),
    ("policynet.grad_energy_x.calls", "evolal.policynet", "PolicyNet",
     "grad_energy_x"),
    ("policynet.adam_steps", "evolal.policynet", "Adam", "step"),
)


def _partition_sweeps(result, args, kwargs) -> int:
    """Accepted sweeps; a warm start's first trace entry is its re-score."""
    warm = kwargs.get("init", args[3] if len(args) > 3 else None)
    return len(result.objective_trace) - (warm is not None)


def _repeats(model) -> int:
    return sum(1 for d in model.diagnostics
               if d.get("label_change") == 0.0 and d.get("resp_change") == 0.0)


# layer -> {counter: f(result, args, kwargs)}, read off returned objects
RESULT_COUNTERS = {
    "partition.fit": {"partition.sweeps": _partition_sweeps},
    "hlirl.fit": {"hlirl.ascent_steps": lambda r, a, k: len(r.trace) - 1,
                  "hlirl.converged": lambda r, a, k: int(r.converged)},
    "themes.fit": {"themes.outer_iters": lambda r, a, k: r.n_outer,
                   "themes.outer_repeats": lambda r, a, k: _repeats(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent, request)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (namespace, attribute, original)

    # ---- spans ----

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[self._stack[0]][4] if self._stack else idx
        self.spans.append([layer, perf_counter(), None, parent, request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _timed(self, layer: str, fn):
        on_result = RESULT_COUNTERS.get(layer, {})

        def wrapper(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            for name, get in on_result.items():
                self.counts[name] += get(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation ----

    def install(self, extra_namespaces=()) -> None:
        """Wrap every listed layer in every evolal module (and in each
        extra namespace, such as the benchmark's own modules) that holds
        the original object."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "evolal" or n.startswith("evolal.")]
        modules.extend(extra_namespaces)
        for layer, module, attr in SPANNED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._timed(layer, original)
            for ns in modules:
                if vars(ns).get(attr) is original:
                    self._patch(ns, attr, original, wrapper)
        for name, module, cls, attr in COUNTED:
            owner = getattr(sys.modules[module], cls)
            original = vars(owner)[attr]
            self._patch(owner, attr, original, self._counted(name, original))

    def _patch(self, ns, attr, original, wrapper) -> None:
        self._patches.append((ns, attr, original))
        setattr(ns, attr, wrapper)

    def remove(self) -> None:
        """Restore every original and check that none is left wrapped."""
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        left = [f"{getattr(ns, '__name__', ns)}.{attr}"
                for ns, attr, original in self._patches
                if vars(ns)[attr] is not original]
        self._patches.clear()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    # ---- results ----

    def layer_totals(self, request: int) -> dict:
        """Calls, inclusive and self seconds per layer within one request
        (given by its root span). Self time is the span minus the time
        its direct children cover; children of one span never overlap
        (one thread)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for layer, start, end, parent, req in self.spans:
            if req != request:
                continue
            calls[layer] += 1
            total[layer] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        for idx, (layer, start, end, _, req) in enumerate(self.spans):
            if req == request:
                self_s[layer] += (end - start) - child[idx]
        return {layer: {"calls": calls[layer], "s": total[layer],
                        "self_s": self_s[layer]} for layer in calls}

    def write(self, path: Path) -> None:
        """One JSON span per line: layer, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
