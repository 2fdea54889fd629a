"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload all --seeds 1-10 [--record]

For every metric the run prints the median of the per-run values and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  This
is how the benchmark's steadiness is judged against the ``bound`` of
each end-to-end metric in ``BENCHMARK.json``.  ``--trace 1`` runs the
traced runs instead and prints the per-layer medians.

``--record`` stores the result, with the host it ran on, in
``perfbench/baseline.json``.  Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run, exactly as ``BENCHMARK.json`` specifies it."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=900,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the (positive) median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host() -> dict:
    """The host a baseline was measured on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    rev = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True,
    ).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def measure(workload: str, seeds: list[int], trace: int) -> dict:
    """Run ``workload`` once per seed; print and return the summary."""
    values: dict[str, list[float]] = {}
    units = {}
    attempted = failed = 0
    for seed in seeds:
        result = run_once(workload, seed, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
    print(f"{workload}: failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} units)")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        row = {"median": statistics.median(vals), "unit": units[name]}
        line = f"  {name:<30} {row['median']:>14.6g} {units[name]:<8}"
        if len(vals) >= 2 and row["median"] > 0:
            row["spread"] = spread(vals)
            line += f" spread {row['spread']:.4f}"
        if name in bounds:
            line += f" (bound {bounds[name]})"
        summary[name] = row
        if units[name] == "s" and "trace.wall_s" in values \
                and not name.startswith("trace."):
            # A layer's share of the traced pass it ran in.
            row["share"] = row["median"] / statistics.median(
                values["trace.wall_s"]
            )
            line += f" share {row['share']:.4f}"
        print(line, flush=True)
    return {"seeds": f"{seeds[0]}-{seeds[-1]}", "failed": failed,
            "attempted": attempted, "metrics": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    results = {
        name: measure(name, _seeds(args.seeds), args.trace)
        for name in names
    }
    if args.record:
        baseline = (
            json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        )
        baseline["host"] = host()
        baseline["run_seconds"] = SPEC["run_seconds"]
        key = "per_layer" if args.trace else "end_to_end"
        for name, result in results.items():
            baseline.setdefault("workloads", {}).setdefault(name, {})[
                key
            ] = result
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
