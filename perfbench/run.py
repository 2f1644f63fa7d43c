"""Benchmark runner: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload advise-default --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics, every time in reference seconds (wall seconds
scaled by the host's speed, sampled while the program runs; see
``hostspeed.py``); ``--trace 1`` runs half the time untraced and half
traced, and prints the per-layer metrics, the layer shares of wall time
and the tracing overhead.  Human-readable detail (machine, sample
counts, share tables) goes to stderr; the last stdout line is the JSON
result.  The program is imported from ``src/`` of the same checkout; a
checkout without it exits with code 2 and prints no result.

The runner re-executes itself with ``PYTHONHASHSEED=0``: with random
string hashing, identical runs settle in one of two speeds about 7%
apart, process by process.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
HASH_SEED = "0"
TRACE_DIR = Path(__file__).resolve().parent / "out"
SETUP_PROCESSES = 3
"""Fresh processes whose set-up is timed; ``setup_s`` is their median."""

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "recommend_p50_s": "s",
    "recommend_p90_s": "s",
    "recommend_warm_p50_s": "s",
    "recommend_cold_p50_s": "s",
    "sweep_p50_s": "s",
    "cost_ratio_gmean": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "localsearch.self_s": "s/op",
    "localsearch.whatif_calls": "count/op",
    "localsearch.improved_share": "ratio",
    "localsearch.gain": "ratio",
    "kernel.time_s": "s/op",
    "kernel.batch_calls": "count/op",
    "kernel.pairs": "count/op",
    "whatif.calls": "count/op",
    "whatif.cache_hits": "count/op",
    "whatif.hit_rate": "ratio",
    "whatif.self_s": "s/op",
    "extend.self_s": "s/op",
    "evaluation.evaluations": "count/op",
    "evaluation.reuse_rate": "ratio",
    "evaluation.warm_hit_rate": "ratio",
    "report.self_s": "s/op",
    "report.whatif_requests": "count/op",
    "candidates.time_s": "s/op",
    "sweep.self_s": "s/op",
    "sweep.backend_calls": "count/op",
    "sweep.reuse_rate": "ratio",
    "service.queue_s": "s/request",
    "coalescer.wait_s": "s/op",
    "coalescer.dedup_rate": "ratio",
    "coalescer.mean_batch_pairs": "count",
    "registry.update_s": "s/op",
    "resilience.retries": "count",
    "resilience.fallback_calls": "count",
    "trace.untraced_ops_s": "1/s",
    "trace.traced_ops_s": "1/s",
    "trace.overhead_share": "ratio",
}

SHARE_LAYERS = (
    "candidates", "kernel", "whatif", "extend", "localsearch", "report",
    "sweep", "registry",
)
"""Layers with their own share; advisor, service and client glue is
reported together as ``share.other``."""

RATIONALE = {
    "advise-default": (
        "swap local search is the largest layer of a cold recommend",
        lambda tags: tags.get("cls") == "recommend",
        "localsearch",
    ),
    "advise-wide": (
        "the report is the largest layer of a w=0.3 recommend",
        lambda tags: tags.get("cls") == "recommend" and tags.get("w") == 0.3,
        "report",
    ),
    "service-mixed": (
        "the decision loop is the largest layer of a warm recommend",
        lambda tags: tags.get("cls") == "recommend.warm",
        "extend",
    ),
}


def log(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


def machine() -> str:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return (
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={version('numpy')} scipy={version('scipy')} "
        f"platform={platform.platform()}; backend: analytic cost model "
        "(vectorized kernel), no modeled latency"
    )


def timed_setups(args) -> list[float]:
    """Time set-up in fresh processes, from spawn to their ready line.

    The child probes the host's speed from its first line on and sends
    its mean probe time with the ready line; the wall time is scaled
    by it to reference seconds."""
    seconds = []
    for _ in range(SETUP_PROCESSES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = child.stdout.readline().split()
            wall = time.perf_counter() - started
        finally:
            child.stdout.close()
            code = child.wait()
        if len(ready) != 2 or ready[0] != "ready" or code != 0:
            raise SystemExit(f"set-up process failed (exit {code})")
        seconds.append(wall * hostspeed.REFERENCE / float(ready[1]))
    return seconds


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def share_p50(ops) -> float:
    """Each budget share's median latency, averaged over the shares.

    Latency depends strongly on the share (advise-wide: 0.1 s to 1.6 s),
    so a pooled median would sit in a gap between share clusters, or
    move with the share mix of the sample."""
    by_share: dict[float, list[float]] = {}
    for op in ops:
        by_share.setdefault(op.share, []).append(op.seconds)
    return statistics.fmean(
        statistics.median(values) for values in by_share.values()
    )


def one_shot_metrics(phase, checker) -> tuple[dict, dict]:
    cold = phase.completed("recommend")
    warm = phase.completed("warm")
    sweeps = [op.seconds for op in phase.completed("sweep")]
    p50 = share_p50(cold)
    values = {
        "throughput_ops_s": phase.throughput(one_shot=True),
        "recommend_p50_s": p50,
        "recommend_p90_s": percentile([op.seconds for op in cold], 90),
        "recommend_warm_p50_s": share_p50(warm),
        "recommend_cold_p50_s": p50,
        "sweep_p50_s": statistics.median(sweeps),
        "cost_ratio_gmean": geometric_mean(checker.ratios),
    }
    counts = {
        "recommend": len(cold),
        "warm": len(warm),
        "sweep": len(sweeps),
        "cost ratios": len(checker.ratios),
    }
    return values, counts


def service_metrics(phase, checker) -> tuple[dict, dict]:
    recommends = phase.completed("recommend")
    seconds = [op.seconds for op in recommends]
    # Which recommends run warm or cold, and so their share mix, is up
    # to the interleaving; per-share medians keep that mix out.
    warm = [op for op in recommends if op.result.warm]
    cold = [op for op in recommends if not op.result.warm]
    sweeps = [op.seconds for op in phase.completed("sweep")]
    values = {
        "throughput_ops_s": phase.throughput(one_shot=False),
        "recommend_p50_s": statistics.median(seconds),
        "recommend_p90_s": percentile(seconds, 90),
        "recommend_warm_p50_s": share_p50(warm),
        "recommend_cold_p50_s": share_p50(cold),
        "sweep_p50_s": statistics.median(sweeps),
        "cost_ratio_gmean": geometric_mean(checker.ratios),
    }
    counts = {
        "recommend": len(seconds),
        "warm": len(warm),
        "cold": len(cold),
        "sweep": len(sweeps),
        "update": len(phase.completed("update")),
        "cost ratios": len(checker.ratios),
    }
    return values, counts


def per_layer(phase, tracer, untraced, counters, one_shot):
    """Per-layer metrics of the traced phase (see README.md)."""
    ops = max(len(phase.completed()), 1)
    totals = tracer.layer_totals()
    counts = dict(tracer.counts)
    for name, value in counters.items():
        counts[name] = counts.get(name, 0.0) + value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    swaps = counts.get("localsearch.calls", 0.0)
    evaluations = counts.get("evaluation.evaluations", 0.0)
    warm_pricings = counts.get("evaluation.warm_hits", 0.0) + counts.get(
        "evaluation.warm_misses", 0.0
    )
    sweep_pricings = counts.get("sweep.warm_hits", 0.0) + counts.get(
        "sweep.warm_misses", 0.0
    )
    calls = counts.get("whatif.calls", 0.0)
    hits = counts.get("whatif.cache_hits", 0.0)
    queued = [
        op.result.queue_seconds
        for op in phase.completed()
        if op.kind in ("recommend", "sweep")
        and hasattr(op.result, "queue_seconds")
    ]
    traced = phase.throughput(one_shot)
    metrics = {
        "localsearch.self_s": totals.get("localsearch", 0.0) / ops,
        "localsearch.whatif_calls": counts.get(
            "localsearch.whatif_calls", 0.0) / ops,
        "localsearch.improved_share": ratio(
            counts.get("localsearch.improved", 0.0), swaps),
        "localsearch.gain": ratio(counts.get("localsearch.gain", 0.0), swaps),
        "kernel.time_s": totals.get("kernel", 0.0) / ops,
        "kernel.batch_calls": counts.get("kernel.batch_calls", 0.0) / ops,
        "kernel.pairs": counts.get("kernel.pairs", 0.0) / ops,
        "whatif.calls": calls / ops,
        "whatif.cache_hits": hits / ops,
        "whatif.hit_rate": ratio(hits, calls + hits),
        "whatif.self_s": totals.get("whatif", 0.0) / ops,
        "extend.self_s": totals.get("extend", 0.0) / ops,
        "evaluation.evaluations": evaluations / ops,
        "evaluation.reuse_rate": ratio(
            counts.get("evaluation.reused", 0.0),
            evaluations + counts.get("evaluation.reused", 0.0),
        ),
        "evaluation.warm_hit_rate": ratio(
            counts.get("evaluation.warm_hits", 0.0), warm_pricings),
        "report.self_s": totals.get("report", 0.0) / ops,
        "report.whatif_requests": counts.get(
            "report.whatif_requests", 0.0) / ops,
        "candidates.time_s": totals.get("candidates", 0.0) / ops,
        "sweep.self_s": totals.get("sweep", 0.0) / ops,
        "sweep.backend_calls": counts.get("sweep.backend_calls", 0.0) / ops,
        "sweep.reuse_rate": ratio(
            counts.get("sweep.warm_hits", 0.0), sweep_pricings),
        "service.queue_s": statistics.fmean(queued) if queued else 0.0,
        "coalescer.wait_s": counts.get("coalescer.wait_s", 0.0) / ops,
        "coalescer.dedup_rate": ratio(
            counts.get("coalescer.deduped", 0.0),
            counts.get("coalescer.enqueued", 0.0),
        ),
        "coalescer.mean_batch_pairs": ratio(
            counts.get("coalescer.dispatched", 0.0),
            counts.get("coalescer.batches", 0.0),
        ),
        "registry.update_s": totals.get("registry", 0.0) / ops,
        "resilience.retries": counts.get("resilience.retries", 0.0),
        "resilience.fallback_calls": counts.get(
            "resilience.fallback_calls", 0.0),
        "trace.untraced_ops_s": untraced,
        "trace.traced_ops_s": traced,
        "trace.overhead_share": ratio(untraced - traced, untraced),
    }
    _, _, shares = tracer.shares(_work_root)
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = shares.get(layer, 0.0)
    metrics["share.other"] = sum(
        share for layer, share in shares.items()
        if layer not in SHARE_LAYERS
    )
    return metrics


SHARE_UNITS = {f"share.{layer}": "ratio"
               for layer in (*SHARE_LAYERS, "other")}


def _work_root(tags) -> bool:
    """Root spans that do the work: service client spans only wait."""
    return not str(tags.get("cls", "")).startswith("client.")


def report_shares(name: str, tracer) -> None:
    """Print each op class's layer shares and the rationale verdict."""
    work = [tags for tags, *_ in tracer.roots if _work_root(tags)]
    classes = sorted({tags.get("cls") for tags in work})
    cold_shares = sorted(
        {tags["w"] for tags in work if tags.get("cls") == "recommend"}
    )
    views = [
        (cls, lambda tags, cls=cls: tags.get("cls") == cls)
        for cls in classes
    ] + [
        (f"recommend w={share}",
         lambda tags, share=share: tags.get("cls") == "recommend"
         and tags.get("w") == share)
        for share in cold_shares
    ]
    for inclusive in (False, True):
        log(
            "layer share of wall time (traced phase, "
            + ("inclusive" if inclusive else "self")
            + " time / root time):"
        )
        for label, select in views:
            count, wall, shares = tracer.shares(select, inclusive)
            top = sorted(shares.items(), key=lambda item: -item[1])
            log(
                f"  {label:<22} n={count:<4} {wall:8.3f}s  "
                + "  ".join(f"{layer}={value:.1%}" for layer, value in top)
            )
    statement, select, expected = RATIONALE[name]
    count, _, inclusive = tracer.shares(select, inclusive=True)
    if not inclusive:
        log(f"rationale: {statement}: not observed (no such op traced)")
        return
    _, _, own = tracer.shares(select)
    largest = max(SHARE_LAYERS, key=lambda layer: inclusive.get(layer, 0.0))
    largest_self = max(SHARE_LAYERS, key=lambda layer: own.get(layer, 0.0))
    verdict = "holds" if largest == expected else "does NOT hold"
    log(
        f"rationale: {statement}: {verdict} by inclusive time (largest: "
        f"{largest} {inclusive[largest]:.1%} over {count} ops); largest "
        f"by self time: {largest_self} {own[largest_self]:.1%}"
    )


def main() -> int:
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    one_shot = args.workload in workloads.ONE_SHOT
    if one_shot:
        bench = workloads.OneShot(workloads.ONE_SHOT[args.workload],
                                  args.seed)
    else:
        bench = workloads.ServiceMixed(args.seed)
    if args.setup_only:
        bench.setup()
        print(f"ready {hostspeed.mean_probe()!r}", flush=True)
        bench.close()
        return 0

    log(f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"machine: {machine()}")
    setups = [] if args.trace else timed_setups(args)
    bench.setup()
    phases = []
    tracer = None
    counters: dict[str, float] = {}
    try:
        if args.trace:
            first = bench.run(args.seconds / 2, tracing.NullTracer())
            phases.append(first)
            tracer = tracing.Tracer()
            before = {} if one_shot else bench.counters()
            tracing.install(tracer)
            try:
                phases.append(bench.run(args.seconds / 2, tracer))
            finally:
                tracer.uninstall()
            if not one_shot:
                after = bench.counters()
                counters = {k: after[k] - before[k] for k in after}
        else:
            phases.append(bench.run(args.seconds, tracing.NullTracer()))
    finally:
        bench.close()

    checker = workloads.Checker(bench.workload.schema if one_shot
                                else bench.epochs[0].schema)
    checking = time.perf_counter()
    bench.check(phases, checker)
    log(f"checks took {time.perf_counter() - checking:.1f} wall s")
    errors = [op for phase in phases for op in phase.ops if op.error]
    attempted = checker.checked + len(errors)
    failed = len(errors) + checker.failed_ops
    for op in errors[:5]:
        log(f"FAILED {op.kind}: {op.error}")
    for text in checker.failures[:5]:
        log(f"CHECK FAILED {text}")
    log(f"ops attempted={attempted} failed={failed} "
        f"(errors={len(errors)}, check failures={checker.failed_ops})")

    phase = phases[-1]
    if args.trace:
        metrics = per_layer(
            phase, tracer, phases[0].throughput(one_shot), counters, one_shot
        )
        report_shares(args.workload, tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        log(f"{len(tracer.spans)} spans written to "
            f"{path.relative_to(ROOT)}")
        units = {**PER_LAYER, **SHARE_UNITS}
    else:
        compute = one_shot_metrics if one_shot else service_metrics
        metrics, counts = compute(phase, checker)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        log(f"samples: {counts}; phase {phase.seconds:.2f} reference s "
            f"in {phase.wall:.2f} wall s; host speed "
            f"{phase.seconds / phase.wall:.3f} of reference "
            f"({hostspeed.count(phase.start, phase.end)} probes); set-up runs "
            f"{[round(s, 3) for s in setups]} reference s")
        units = END_TO_END
    for name, value in metrics.items():
        log(f"  {name:<28} {value:.6g} {units.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE.name}/repro; "
              "run from the root of a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SOURCE))
    # Probe from before the program is imported; stop before the
    # interpreter resets the SIGALRM handler at exit.
    hostspeed.install()
    try:
        code = main()
    finally:
        hostspeed.uninstall()
    sys.exit(code)
