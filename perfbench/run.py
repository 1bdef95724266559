"""Campaign benchmark for zptoolkit: one command, three seeded workloads.

    python3 perfbench/run.py --workload fleet-scan --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/``. A run
repeats identical passes of the workload until ``--seconds`` have elapsed.
Each pass builds the workload afresh from the seed (timed as set-up) and
then does the measured work once. The passes are taken in consecutive
groups of ``PASSES_PER_ESTIMATE``. Within a group, each timed item (a
probed pair, a tenant update, a resolved domain, a report step) counts at
its fastest time, so a stall from another process during one pass does
not count. Each wall metric is the median of its per-group values, so
the number of passes that fit, which depends on the code's speed, does
not bias it. Set-up is reported as the median over the passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate, and it holds the
per-layer metrics of the last traced pass, plus ``trace.overhead_ratio``
(fastest traced pass over fastest untraced pass, both at the reference
speed). A human-readable table goes to stderr. A failed correctness check
is named on stderr, the result line carries ``"correct": false``, and the
exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

perf = time.perf_counter

PASSES_PER_ESTIMATE = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_passes(workload, seconds: float, tracer=None):
    """Alternate untraced and (with a tracer) traced passes until ``seconds`` elapse.

    A traced pass runs the workload with a NullTimer, so its spans hold
    zptoolkit's work only; it is timed as a whole, like an untraced pass.
    """
    from timing import REFERENCE_SPIN_S, NullTimer, Timer

    plain, traced, setups, loads = [], [], [], []
    deadline = perf() + seconds
    while True:
        tracing = tracer is not None and len(traced) < len(plain)
        if tracing:
            tracer.install()
        timer = Timer()
        state = timer.call("setup", workload.setup)
        if tracing:
            tracer.reset()
        result = timer.call("run", workload.run, state, NullTimer() if tracing else timer)
        start, end = timer.items.pop("run")[0]
        result.seconds = timer.seconds_between(start, end)
        result.times = timer.rescaled()
        setup_s = result.times.pop("setup")[0]
        loads.append(statistics.median(d for _, d in timer.probes) / REFERENCE_SPIN_S)
        if tracing:
            tracer.uninstall()
            traced.append(result)
        else:
            plain.append(result)
            setups.append(setup_s)
        del state
        gc.collect()
        if perf() >= deadline and (tracer is None or traced):
            return plain, traced, setups, loads


def fastest_items(passes, failed: list[str]) -> dict[str, list[float]]:
    best = {}
    for stage in passes[0].times:
        series = [p.times[stage] for p in passes]
        if len({len(s) for s in series}) != 1:
            failed.append(f"passes timed different numbers of {stage} items")
        best[stage] = [min(column) for column in zip(*series)]
    return best


def estimate(cls, passes, counts, failed: list[str]) -> dict[str, float]:
    """The workload's wall metrics: median over consecutive groups of passes of
    ``summarize`` at each item's fastest time in the group. A run too short
    for one whole group makes one group of all its passes."""
    k = PASSES_PER_ESTIMATE
    groups = [passes[i:i + k] for i in range(0, len(passes) - k + 1, k)] or [passes]
    per_group = [cls.summarize(fastest_items(g, failed), counts) for g in groups]
    return {name: statistics.median(g[name] for g in per_group) for name in per_group[0]}


def main(argv=None) -> int:
    if not (ROOT / "src" / "zptoolkit" / "__init__.py").is_file():
        print(f"error: no zptoolkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import CLIENTS, WORKLOADS

    spec = load_spec()
    args = parse_args(argv, WORKLOADS)
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    tracer = Tracer(CLIENTS) if args.trace else None

    plain, traced, setups, loads = run_passes(workload, args.seconds, tracer)
    passes = plain + traced
    failed_checks = [c for p in passes for c in p.failed_checks]
    if any(p.counts != passes[0].counts for p in passes):
        failed_checks.append("deterministic counts differ between identical passes")
    counts = passes[0].counts
    derived = estimate(cls, plain, counts, failed_checks)
    failed_checks = sorted(set(failed_checks))

    if args.trace:
        values = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
        values.update(tracer.layer_metrics())
        values.update(traced[-1].layer)
        values.update({k: v for k, v in derived.items() if k.startswith("stage.")})
        values["op_ms_p95"] = derived["op_ms_p95"]
        values["failed_share"] = counts["failed"] / counts["attempted"]
        values["trace.overhead_ratio"] = (min(p.seconds for p in traced)
                                          / min(p.seconds for p in plain))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = dict(derived)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    print(f"{args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} traced "
          f"attempted/pass={counts['attempted']} failed/pass={counts['failed']}", file=sys.stderr)
    print("  pass seconds at reference speed: " + " ".join(f"{p.seconds:.3f}" for p in plain)
          + (" | traced: " + " ".join(f"{p.seconds:.3f}" for p in traced) if traced else ""),
          file=sys.stderr)
    print("  probe time / reference, per pass: " + " ".join(f"{x:.2f}" for x in loads),
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    if args.trace:
        for chain in tracer.error_chains():
            print(f"  exception: {chain}", file=sys.stderr)
    else:
        for name in ["op_ms_p95"] + sorted(k for k in derived if k.startswith("stage.")):
            print(f"  {name:44s} {derived[name]:>16.6g} (not gated)", file=sys.stderr)
    for check in failed_checks:
        print(f"FAILED CHECK: {check}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": int(sum(p.counts["attempted"] for p in passes)),
        "failed": int(sum(p.counts["failed"] for p in passes)),
        "metrics": metrics,
    }))
    return 0 if not failed_checks else 1


if __name__ == "__main__":
    sys.exit(main())
