"""Run one measurement on this tree and on a parent revision, in alternating pairs.

Usage: python3 tools/ab.py --parent REV (--harness NAME | --perfbench WORKLOAD)
                           [--pairs N] [--seed S] [--seconds T]

The parent runs from a temporary ``git worktree`` of REV, removed at the end;
the first side alternates. NAME is a harness as its record names it, T is
BENCHMARK.json's ``run_seconds`` by default. A number in a run's record with a
unit part in its dotted name (``op_ms_p50``) is measured: both medians, the
parent's IQR, pairs won (higher wins for ``*per_s``). Others must be equal.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
META = {"harness", "command", "python", "nproc", "seed", "repeats"}
MEASURED = re.compile(r"(^|_)(ns|us|ms|s|mb)(_|$)")


def flatten(value, path: str = ""):
    """The numbers in a JSON value by dotted path, list items by index."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from flatten(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def run(tree: Path, argv: list[str]) -> dict:
    """The metrics of one run of ``argv`` in ``tree``, against that tree's ``src``."""
    out = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if out.returncode not in (0, 1) or not out.stdout.strip():  # perfbench: 1 is a failed gate
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {out.returncode}\n{out.stderr}")
    if argv[0] != "perfbench/run.py":
        return dict(flatten({k: v for k, v in json.loads(out.stdout).items() if k not in META}))
    record = json.loads(out.stdout.splitlines()[-1])
    return {"correct": int(record["correct"]),
            **{name: m["value"] for name, m in record["metrics"].items()}}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--harness")
    side.add_argument("--perfbench")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    cmd = [f"tools/{args.harness}.py", "--seed", str(args.seed)]
    if args.perfbench:
        seconds = args.seconds if args.seconds is not None else \
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        cmd = ["perfbench/run.py", "--workload", args.perfbench, "--seed", str(args.seed),
               "--seconds", f"{seconds:g}"]
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run([*git, "rev-parse", args.parent], check=True, capture_output=True,
                         text=True).stdout.strip()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([*git, "worktree", "add", "-q", tmp + "/parent", sha], check=True)
        try:
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run(ROOT if side == "change" else Path(tmp, "parent"), cmd))
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", tmp + "/parent"], check=True)
    print("python3 tools/ab.py " + " ".join(sys.argv[1:]))
    print(f"each run: PYTHONPATH=src python3 {' '.join(cmd)}, in this tree and in a worktree "
          f"of {args.parent} ({sha[:12]}); {args.pairs} pairs, the first side alternating")
    for metric in runs["change"][0]:
        before = [r.get(metric, float("nan")) for r in runs["parent"]]
        after = [r[metric] for r in runs["change"]]
        if metric not in runs["parent"][0] or not any(map(MEASURED.search, metric.split("."))):
            verdict = "equal" if len(set(before + after)) == 1 else "DIFFERENT"
        else:
            wins = sum(a > b if metric.endswith("per_s") else a < b for a, b in zip(after, before))
            q = statistics.quantiles(before, n=4) if len(before) > 1 else before * 3
            verdict = (f"medians {statistics.median(before):.6g} -> {statistics.median(after):.6g}"
                       f", parent IQR {q[2] - q[0]:.3g}, change better in {wins} of {args.pairs}")
        values = " ".join(f"{v:.6g}" for v in before) + " | " + " ".join(f"{v:.6g}" for v in after)
        print(f"{metric:44s} {verdict}; runs, parent | change: {values}")


if __name__ == "__main__":
    main()
