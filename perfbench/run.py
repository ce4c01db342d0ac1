"""secnc benchmark: one workload, one seed, one single-threaded closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coherent-p3 --seed 1 --seconds 55 --trace 0

With --trace 0 the loop runs untraced and reports the end-to-end
metrics, taking each distinct case's fastest run as its latency
(perfbench/README.md says why); with --trace 1 a traced pass (perfbench/tracing.py) is followed
by an untraced pass over the same cases, and per-layer metrics are
reported per case.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Lines before it
start with '#' and give what the JSON has no room for: the tail
percentile and sample counts, failure_ratio and the audits' split.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Each run is one single-threaded process; keep numpy's pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_REPS = 21  # set-ups per run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples a tail percentile needs above it
KEEP_SPANS = 20000  # span records written to the trace file
# The untraced loop moves to the next allowed CPU this often: the host
# slows one CPU at a time for seconds, and fastest repeats then come
# from whichever CPU is fast.
CPU_SLICE_S = 1.0

# Per-layer groups of linalg spans; a group's calls count entries from outside it.
LINALG_GROUPS = {
    "rank": ("rank", "rank_fq", "rank_gf2", "rank_gf2_at_most", "pack_row_gf2"),
    "null_space": ("null_space", "rref"),
    "row_reduce_transform": ("row_reduce_transform",),
    "left_inverse": ("left_inverse",),
    "kernel_vector": ("kernel_vector",),
    "matmul": ("matmul", "matvec"),
    "expand": ("expand", "contract"),
    "helpers": ("to_lists", "dims", "zeros", "identity", "transpose"),
    "enum": ("iter_rref_full_row_rank", "iter_full_col_rank", "iter_rank_exactly",
             "iter_rank_at_most", "iter_full_rank", "iter_invertible"),
}
LINALG_CALLS = ("rank", "null_space", "row_reduce_transform")
TRANSMIT = ("network.transmit", "network.effective_error")


def _purge_secnc():
    for name in [k for k in sys.modules if k == "secnc" or k.startswith("secnc.")]:
        del sys.modules[name]


def _import_secnc():
    secnc = importlib.import_module("secnc")
    if Path(secnc.__file__).resolve().parent != SRC / "secnc":
        raise ImportError(f"secnc imported from {secnc.__file__}, not {SRC}")
    return secnc


def tail(samples):
    """(percentile, value, samples beyond) for the highest ladder rung with
    at least TAIL_BEYOND samples above it; the maximum when none has."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


class Loop:
    """Closed loop with one client: the next case starts when the last ends.

    The pool of drawn cases is cycled, so each distinct case runs several
    times spread across the run; `best[i]` is the fastest run of case i.
    """

    def __init__(self, wl, state, cases):
        self.wl, self.state, self.cases = wl, state, cases
        self.best = [math.inf] * len(cases)
        self.runs = self.attempted = self.failed = 0

    def run(self, seconds=None, limit=None, between=None):
        """Run until `seconds` passed (at least one case) or `limit` cases
        ran; call between(elapsed) after each case.  Returns wall seconds."""
        start = now = time.perf_counter()
        done = 0
        while (done < limit) if limit is not None else (done == 0 or now - start < seconds):
            i = self.runs % len(self.cases)
            t0 = time.perf_counter()
            a, f = self.wl.run(self.state, self.cases[i])
            now = time.perf_counter()
            if f == 0:
                self.best[i] = min(self.best[i], now - t0)
            self.attempted += a
            self.failed += f
            self.runs += 1
            done += 1
            if between is not None:
                between(now - start)
                now = time.perf_counter()
        return now - start


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, cases, extra):
    """Per-layer metrics from one traced pass, per case unless a ratio."""
    from tracing import SPAN_LAYERS

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_case(name, value, unit):
        put(name, value / cases, unit + "/case")

    for key in ("gf.ext.ops", "gf.base.ops"):
        per_case(key, tracer.ops[key], "count")
    for layer in SPAN_LAYERS:
        per_case(f"{layer}.self_s", tracer.group_self_s(tracer.layer_names(layer)), "s")
    per_case("linalg.calls", tracer.count(tracer.layer_names("linalg")), "count")
    for group, fns in LINALG_GROUPS.items():
        names = [f"linalg.{f}" for f in fns]
        if group in LINALG_CALLS:
            per_case(f"linalg.{group}.calls", tracer.count(names), "count")
        per_case(f"linalg.{group}.self_s", tracer.group_self_s(names), "s")
    enum = [f"linalg.{f}" for f in LINALG_GROUPS["enum"]]
    per_case("linalg.enum.items", tracer.count(enum, table=tracer.items), "count")

    name = "rankmetric.decode"
    calls = tracer.count([name])
    per_case(f"{name}.calls", calls, "count")
    per_case(f"{name}.self_s", tracer.self_s[name], "s")
    put(f"{name}.ok_ratio", _ratio(tracer.count([name], table=tracer.useful), calls), "ratio")
    for name in ("scheme.encode", "scheme.coherent_decode"):
        per_case(f"{name}.self_s", tracer.self_s[name], "s")
    per_case("network.transmit.self_s", tracer.group_self_s(TRANSMIT), "s")

    per_case("audit.reliability.self_s", tracer.self_s["audit.reliability_audit"], "s")
    per_case("audit.reliability.cases", extra.get("reliability_cases", 0), "count")
    per_case("audit.secrecy.self_s", tracer.self_s["audit.secrecy_audit"], "s")
    per_case("audit.secrecy.views", extra.get("secrecy_views", 0), "count")
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "secnc" / "__init__.py").is_file():
        print(f"perfbench: no secnc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    make, _why = WORKLOADS[args.workload]
    wl = make()
    # first import compiles bytecode when needed; only re-imports are timed
    secnc = _import_secnc()
    rng = np.random.default_rng(args.seed)
    warm = wl.draw(rng, secnc.linalg)
    drawn = [wl.draw(rng, secnc.linalg) for _ in range(wl.pool)]

    setup_s = []
    warm_failed = 0

    def set_up():
        nonlocal warm_failed
        _purge_secnc()
        t0 = time.perf_counter()
        secnc = _import_secnc()
        state, warm_ok = wl.setup(secnc, warm)
        setup_s.append(time.perf_counter() - t0)
        warm_failed += not warm_ok
        return secnc, state

    secnc, state = set_up()
    loop = Loop(wl, state, [wl.prepare(state, d) for d in drawn])
    notes = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from tracing import ROOT as BENCH_SPAN, Tracer

        tracer = Tracer(keep_spans=KEEP_SPANS)
        with tracer, tracer.root() as root:
            loop.run(args.seconds / 2)
        extra = dict(getattr(wl, "counts", {}))
        n = loop.runs
        loop.runs = 0  # replay the traced cases, untraced
        untraced_s = loop.run(limit=n)
        metrics = per_layer(tracer, n, extra)
        wall = root.wall_s
        metrics["bench.self_s"] = {"value": tracer.self_s[BENCH_SPAN] / n, "unit": "s/case"}
        metrics["trace.wall_s"] = {"value": wall / n, "unit": "s/case"}
        metrics["trace.overhead_ratio"] = {"value": wall / untraced_s, "unit": "ratio"}
        notes.update(traced_cases=n, traced_wall_s=wall, untraced_wall_s=untraced_s,
                     accounted_s=sum(tracer.self_s.values()))
        _write_trace(tracer, args, notes)
    else:
        # further set-ups are spread over the run, so their median sees the
        # machine as the loop does; the loop keeps the first set-up's state
        slots = iter(args.seconds * i / SETUP_REPS for i in range(1, SETUP_REPS))
        due = [next(slots)]
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        on_cpu = [None]

        def between(elapsed):
            while due[0] is not None and elapsed >= due[0]:
                set_up()
                due[0] = next(slots, None)
            cpu = cpus[int(elapsed / CPU_SLICE_S) % len(cpus)] if len(cpus) > 1 else None
            if cpu != on_cpu[0]:
                os.sched_setaffinity(0, {cpu})
                on_cpu[0] = cpu

        elapsed = loop.run(args.seconds, between=between)
        if on_cpu[0] is not None:
            os.sched_setaffinity(0, cpus)
        while len(setup_s) < SETUP_REPS:
            set_up()
        best = wl.fastest([b for b in loop.best if b < math.inf])
        p, tail_s, beyond = tail(best)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "cases_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "case_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "case_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        notes.update(runs=loop.runs, distinct_cases=len(best), elapsed_s=elapsed,
                     wall_cases_per_s=loop.runs / elapsed, tail_percentile=p,
                     tail_samples_beyond=beyond, setup_samples_s=setup_s)
        notes.update(wl.split())
    attempted, failed = loop.attempted, loop.failed
    attempted += len(setup_s)
    failed += warm_failed
    failure_ratio = failed / attempted
    notes["failure_ratio"] = failure_ratio
    if args.trace:
        metrics["failure_ratio"] = {"value": failure_ratio, "unit": "ratio"}
    print("# " + json.dumps(notes, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_trace(tracer, args, notes):
    """Keep the run's spans: per-name aggregates and the first KEEP_SPANS records."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    spans = {}
    for (name, _), c in tracer.entries.items():
        spans[name] = spans.get(name, 0) + c
    per_name = {name: {"self_s": s, "spans": spans[name]}
                for name, s in sorted(tracer.self_s.items())}
    with open(path, "w") as fh:
        json.dump({"notes": notes, "per_span": per_name,
                   "spans": [list(s) for s in tracer.spans]}, fh)
    notes["trace_file"] = str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
