#!/usr/bin/env python3
"""evolal benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload cv-ordinal --seed 0 --seconds 30 --trace 0

Run from the repository root. The corpus is generated from --seed and
written to JSONL under .bench_out/; the pipeline only ever reads that
file. With --trace 0 the client sends whole requests (one `evolal
evaluate` or `evolal train` each) back to back for --seconds and reports
the end-to-end metrics. With --trace 1 it sends one untraced request and
two traced ones and reports the per-layer metrics. The last line of
standard output is the result as JSON; a failed output check makes
"correct" false, and a broken checkout exits non-zero without a result.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

T_START = perf_counter()  # before numpy and evolal are imported

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INCOMING_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}
PIN_TOO_LATE = "numpy" in sys.modules  # e.g. imported by a sitecustomize
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MAX_FAILED_CORPORA = 20  # a run gives up after this many failed corpora
STRIDE = 1000  # corpus k of a run's stream has emitter seed seed + k*STRIDE
ROW_TOL = 1e-9


class CheckFailed(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one timed set-up, for setup_s
    return p.parse_args(argv)


def import_pipeline():
    """Import evolal from the checkout's src/ plus the benchmark modules."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy  # noqa: F401
    import evolal
    if Path(evolal.__file__).resolve().parent != ROOT / "src" / "evolal":
        raise ImportError(f"evolal resolved to {evolal.__file__}, not to "
                          "this checkout")
    import spans
    import workloads
    return spans, workloads


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    bad = {v: os.environ.get(v) for v in THREAD_VARS
           if os.environ.get(v) != "1"}
    if bad or PIN_TOO_LATE:
        raise CheckFailed(f"BLAS/OpenMP threads not pinned to 1 before numpy "
                          f"was imported: {bad or 'numpy came first'}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "threads_incoming": INCOMING_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ---------------------------------------------------------------------------
# set-up

def measure_setup(args) -> list[float]:
    """Repeat the whole set-up in fresh processes, so imports count; each
    is timed from its own start, interpreter start-up excluded."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT, env=os.environ)
        if proc.returncode != 0:
            raise CheckFailed(f"set-up process failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# requests and checks

class Client:
    """Closed loop, one client: each request starts when the previous
    one returned.

    A run works on the first corpus of the stream seed, seed + STRIDE,
    seed + 2 STRIDE, ... that the pipeline completes. A request that
    raises an EvolalError counts as failed (every fit and prediction it
    attempted is tallied in `failed` and `error_rate`, its corpus and
    message go into the record) and the next corpus of the stream is
    tried."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.corpus = None
        self.attempted = 0
        self.failed = 0
        self.failed_s = 0.0
        self.failures: list[str] = []
        self.artifact = None  # first output on the run's corpus

    def first(self):
        """Requests on fresh corpora until one completes; returns its
        (seconds, outcome)."""
        for k in range(MAX_FAILED_CORPORA + 1):
            self.corpus = self.workload.make_corpus(self.seed + k * STRIDE,
                                                    OUT)
            dt, out = self.send()
            if out is not None:
                return dt, out
        raise CheckFailed(f"{len(self.failures)} corpora failed in a row")

    def repeat(self):
        """One more request on the run's corpus."""
        dt, out = self.send()
        if out is None:
            raise CheckFailed(f"a corpus that fitted before failed: "
                              f"{self.failures[-1]}")
        return dt, out

    def send(self):
        """One request; returns (seconds, outcome), outcome None if the
        request failed."""
        t0 = perf_counter()
        out = self.workload.request(self.corpus)
        seconds = perf_counter() - t0
        self.attempted += out.attempted
        self.failed += out.failed
        if out.error:
            self.failed_s += seconds
            self.failures.append(f"{self.corpus.path.name}: {out.error}")
            return seconds, None
        check_outcome(out)
        if self.artifact is None:
            self.artifact = out.artifact
        elif out.artifact != self.artifact:
            raise CheckFailed("a repeated request on the same corpus did not "
                              "reproduce its output byte for byte")
        return seconds, out


def check_outcome(out) -> None:
    import numpy as np
    if out.rows:
        rows = np.vstack(out.rows)
        if not np.all(np.isfinite(rows)):
            raise CheckFailed("a prediction row is not finite")
        if rows.min() < 0.0:
            raise CheckFailed("a prediction row has a negative entry")
        if np.abs(rows.sum(axis=1) - 1.0).max() > ROW_TOL:
            raise CheckFailed("a prediction row does not sum to 1")
    for r in out.r_bars:
        if not np.all(np.isfinite(r)) or np.abs(r).max() > 1.0 + ROW_TOL:
            raise CheckFailed("r_bar is not finite with max |r| <= 1")
    for name, value in out.quality.items():
        if not np.isfinite(value):
            raise CheckFailed(f"{name} is not finite")


# ---------------------------------------------------------------------------
# the two kinds of run

def untraced_run(client: Client, seconds: float, setup_times):
    """Requests back to back until the next one would overrun --seconds
    (at least one). Returns the gated end-to-end metrics (every workload
    has them), the informational ones (those a workload has), and the
    model fingerprint."""
    begin = perf_counter()
    done = [client.first()]
    while perf_counter() - begin + statistics.median(
            dt for dt, _ in done) <= seconds:
        done.append(client.repeat())
    outs = [out for _, out in done]
    metrics = {"wall_s": (statistics.median(dt for dt, _ in done), "s"),
               "setup_s": (statistics.median(setup_times), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    info = {"requests": (len(outs), "count"),
            "error_rate": (client.failed / client.attempted, "ratio"),
            "failed_s": (client.failed_s, "s")}
    predictions = sum(out.predictions for out in outs)
    if predictions:
        info["predict_steps_per_s"] = (
            predictions / sum(out.predict_s for out in outs), "1/s")
    for name, value in outs[0].quality.items():  # accuracy, AUC, ARIs
        info[name] = (value, "ratio")
    return metrics, info, outs[0].fingerprint


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(client: Client, spans, workloads_module) -> dict:
    """One untraced request, then two traced ones on the same corpus.
    The wrappers come off before anything is reported; the two traced
    requests must agree on every call count."""
    untraced_s, _ = client.first()
    tracer = spans.Tracer()
    tracer.install(extra_namespaces=[workloads_module])
    traced = []
    try:
        for _ in range(2):
            before = Counter(tracer.counts)
            root = tracer.open("request")
            try:
                dt, _ = client.repeat()
            finally:
                tracer.close(root)
            counts = Counter(tracer.counts)
            counts.subtract(before)
            traced.append((dt, tracer.layer_totals(root), +counts))
    finally:
        tracer.remove()
    (dt1, lay1, cnt1), (dt2, lay2, cnt2) = traced
    if {k: v["calls"] for k, v in lay1.items()} \
            != {k: v["calls"] for k, v in lay2.items()} or cnt1 != cnt2:
        raise CheckFailed("call counts differ between the two traced "
                          "requests")
    tracer.write(OUT / f"spans-{client.workload.name}-{client.seed}.jsonl")
    metrics = layer_metrics(spans, lay1, lay2, cnt1)
    metrics["trace.overhead"] = ((dt1 + dt2) / 2.0 / untraced_s, "ratio")
    return metrics


# span-derived names that README.md's layer map spells differently
RENAMED = {"ingest.parse.s": "ingest.parse_s",
           "emedm.e_step.calls": "emedm.em_iters",
           "evaluation.evaluate_on.calls": "evaluation.cells"}


def layer_metrics(spans, lay1, lay2, counts) -> dict:
    """Calls and counters from the first traced request (the second
    matched it); seconds averaged over both."""
    def seconds(layer, key):
        return (lay1.get(layer, {}).get(key, 0.0)
                + lay2.get(layer, {}).get(key, 0.0)) / 2.0

    out = {"request.self_s": (seconds("request", "self_s"), "s")}
    for layer, _, _ in spans.SPANNED:
        out[f"{layer}.calls"] = (lay1.get(layer, {}).get("calls", 0), "count")
        out[f"{layer}.s"] = (seconds(layer, "s"), "s")
        out[f"{layer}.self_s"] = (seconds(layer, "self_s"), "s")
    out = {RENAMED.get(k, k): v for k, v in out.items()}
    for name in (*(c[0] for c in spans.COUNTED), "partition.sweeps",
                 "hlirl.ascent_steps", "themes.outer_iters",
                 "themes.outer_repeats"):
        out[name] = (counts[name], "count")
    fits = lay1.get("hlirl.fit", {}).get("calls", 0)
    out["hlirl.converged_ratio"] = (
        counts["hlirl.converged"] / fits if fits else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spans, workloads = import_pipeline()
    except ImportError as exc:
        print(f"perfbench: cannot import the pipeline from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    OUT.mkdir(exist_ok=True)
    if args.setup_only:  # imports, corpus generation, JSONL write
        workloads.WORKLOADS[args.workload].make_corpus(args.seed, OUT)
        print(f"{perf_counter() - T_START:.9f}")
        return 0

    client = Client(workloads.WORKLOADS[args.workload], args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace}
    metrics, info = {}, {}
    try:
        record["env"] = environment()
        if args.trace:
            metrics = traced_run(client, spans, workloads)
        else:
            setup_times = measure_setup(args)
            metrics, info, record["fingerprint_sha256"] = untraced_run(
                client, args.seconds, setup_times)
        correct = True
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        record["check_failed"] = str(exc)
        correct = False
    record["failures"] = client.failures
    record["info"] = {k: v for k, (v, _) in info.items()}
    for name, (value, unit) in {**metrics, **info}.items():
        if not args.trace or name == "trace.overhead":
            print(f"{args.workload:>13} {name:>20} = {value:.6g} {unit}")
    (OUT / f"result-{args.workload}-{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": max(client.attempted, 1),
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
