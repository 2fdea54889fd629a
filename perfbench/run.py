"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 45 \\
        --trace 0

Run from the root of the repository (or of a checkout of it).  The run
sets the workload up, runs one untimed warm-up pass, then measures
passes for ``--seconds`` seconds, setting the workload up again
``SETUP_REPEATS - 1`` times at even intervals between them.  It then
times the simulator's imports in ``IMPORT_REPEATS`` fresh interpreters
(``setup_s`` is the median import time plus the median set-up time),
checks every pass's simulated outputs (the warm-up pass's too) and
prints a table
followed, as the last line of standard output, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: each layer's self time and work counts from the
traced passes, and the tracing overhead (traced minus untraced wall
time).  Spans are written to ``.perfbench-work/spans/``.

``--write-digests`` (with ``--seed`` equal to ``DEFAULT_SEED``) stores
the warm-up pass's outputs in ``digests.json`` instead of checking
them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORK = ROOT / ".perfbench-work"
#: Import path of the simulator and of this package.
IMPORT_PATH = [str(ROOT / "src"), str(ROOT)]

#: Set-ups per untraced run.  They are spread over the run, so that
#: ``setup_s``, like ``wall_s``, is a median over the whole run and not
#: over the host's speed in its first seconds.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
#: Untraced runs measure at least this many passes; traced runs twice
#: as many, alternating untraced and traced.
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instr_per_s": "instr/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "apps.build_s": "s",
    "apps.verify_s": "s",
    "tango.run_s": "s",
    "tango.instructions": "count",
    "tango.instr_per_s": "instr/s",
    "trace_cache.load_s": "s",
    "trace_cache.disk_hits": "count",
    "trace_cache.hit_ratio": "ratio",
    "cpu.ds_s": "s",
    "cpu.ds_s.SC": "s",
    "cpu.ds_s.PC": "s",
    "cpu.ds_s.RC": "s",
    "cpu.ds_instr_per_s": "instr/s",
    "cpu.ds_share": "ratio",
    "cpu.static_s": "s",
    "cpu.static_instr_per_s": "instr/s",
    "report.render_s": "s",
    "cosim.run_s.base": "s",
    "cosim.run_s.ds": "s",
    "cosim.misses": "count",
    "cosim.host_us_per_miss.base": "us",
    "cosim.host_us_per_miss.ds": "us",
    "net.mean_miss_cycles": "cycles",
    "service.batch_s": "s",
    "service.rerun_s": "s",
    "service.jobs_per_s": "1/s",
    "service.store_hit_ratio": "ratio",
    "service.retries": "count",
    "service.worker_restarts": "count",
    "service.overhead_ms_per_job": "ms",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(p, spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass ``p`` from its ``spans``.

    Every name in :data:`PER_LAYER` is present; a layer the workload
    bypasses reads 0.  ``service.overhead_ms_per_job``,
    ``trace.wall_s`` and ``trace.overhead_s`` are filled in per run,
    not per pass.
    """
    from perfbench.tracing import self_times

    st = self_times(spans)
    c = p.counts
    ds_s = sum(v for k, v in st.items() if k.startswith("cpu.ds."))
    static_s = st.get("cpu.static", 0.0)
    run_s = {k: st.get(f"cosim.run.{k}", 0.0) for k in ("base", "ds")}
    misses = {k: c.get(f"cosim.misses.{k}", 0) for k in ("base", "ds")}
    batch_s = st.get("service.batch", 0.0)
    jobs = c.get("service.jobs", 0)
    out = {
        "apps.build_s": st.get("apps.build", 0.0),
        "apps.verify_s": st.get("apps.verify", 0.0),
        "tango.run_s": st.get("tango.run", 0.0),
        "tango.instructions": c.get("tango.instructions", 0),
        "tango.instr_per_s": _rate(
            c.get("tango.instructions", 0), st.get("tango.run", 0.0)
        ),
        "trace_cache.load_s": st.get("trace_cache.load", 0.0),
        "trace_cache.disk_hits": c.get("trace_cache.disk_hits", 0),
        "trace_cache.hit_ratio": _rate(
            c.get("trace_cache.disk_hits", 0), c.get("trace_cache.gets", 0)
        ),
        "cpu.ds_s": ds_s,
        "cpu.ds_instr_per_s": _rate(c.get("cpu.ds.instructions", 0), ds_s),
        "cpu.ds_share": _rate(ds_s, p.wall_s),
        "cpu.static_s": static_s,
        "cpu.static_instr_per_s": _rate(
            c.get("cpu.static.instructions", 0), static_s
        ),
        "report.render_s": st.get("report.render", 0.0),
        "cosim.misses": sum(misses.values()),
        "net.mean_miss_cycles": _rate(
            c.get("net.miss_cycles", 0), sum(misses.values())
        ),
        "service.batch_s": batch_s,
        "service.rerun_s": st.get("service.rerun", 0.0),
        "service.jobs_per_s": _rate(jobs, batch_s),
        "service.store_hit_ratio": _rate(
            c.get("service.store_hits", 0), jobs
        ),
        "service.retries": c.get("service.retries", 0),
        "service.worker_restarts": c.get("service.worker_restarts", 0),
        "service.overhead_ms_per_job": 0.0,
        "bench.self_s": st.get("bench.pass", 0.0),
        "trace.wall_s": p.wall_s,
        "trace.overhead_s": 0.0,
    }
    for model in ("SC", "PC", "RC"):
        out[f"cpu.ds_s.{model}"] = st.get(f"cpu.ds.{model}", 0.0)
    for kind in ("base", "ds"):
        out[f"cosim.run_s.{kind}"] = run_s[kind]
        out[f"cosim.host_us_per_miss.{kind}"] = 1e6 * _rate(
            run_s[kind], misses[kind]
        )
    return out


def check_passes(passes, digest: dict | None, fixed_digest: dict | None):
    """Count failed units over ``passes``.

    A unit fails if it raised or broke an output invariant
    (``Pass.errors``), if its output differs from ``digest`` (seeded
    outputs, checked only on the digest's seed) or ``fixed_digest``
    (outputs of seedless inputs, checked on every seed), or if it
    differs from the same unit's output in the first pass.  Returns
    ``(attempted, failed, reasons)``.
    """
    first = passes[0]
    attempted = failed = 0
    reasons: dict[str, str] = {}
    for p in passes:
        bad = dict(p.errors)
        for outputs, ref, first_outputs in (
            (p.seeded, digest, first.seeded),
            (p.fixed, fixed_digest, first.fixed),
        ):
            for unit, value in outputs.items():
                if ref is not None and ref.get(unit) != value:
                    bad.setdefault(unit, "differs from the committed digest")
                elif value != first_outputs.get(unit):
                    bad.setdefault(unit, "differs from the first pass")
        attempted += p.attempted
        failed += len(bad)
        reasons.update(bad)
    return attempted, failed, reasons


def _percentile_line(values: list[float]) -> str:
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it, with the sample count."""
    n = len(values)
    if n < 2:
        return f"n={n}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    line = f"p25 {q1:.6g} p75 {q3:.6g}"
    if n >= 11:
        pct = 100 * (n - 10) // n
        k = max(0, min(n - 1, -(-pct * n // 100) - 1))
        line += f" p{pct} {sorted(values)[k]:.6g}"
    return f"{line} n={n}"


def import_seconds() -> float:
    """Median host seconds, over ``IMPORT_REPEATS`` fresh interpreters,
    to import every simulator layer the workloads call."""
    code = (
        "import time; t = time.perf_counter(); "
        "import perfbench.workloads; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(IMPORT_PATH))
    return statistics.median(
        float(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _host_line() -> str:
    import numpy

    return (
        f"host: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__}"
    )


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep every file the simulator writes inside the checkout, and
    # stop ``git`` from searching above it for a revision.
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path[:0] = IMPORT_PATH
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload, inputs, seconds: float, trace: bool, run_id: str,
            run_dir: Path, seed: int, setups: list[float]):
    """Run one warm-up pass, then passes for about ``seconds`` seconds
    (at least ``MIN_PASSES``; with ``trace``, alternating untraced and
    traced).  The warm-up pass is checked but not timed.  An untraced
    run also sets the workload up until ``setups`` holds
    ``SETUP_REPEATS`` set-up times, one after each ``1 /
    SETUP_REPEATS`` of ``seconds``.

    Returns ``(passes, untraced, traced_layer_metrics, spans)``:
    every pass, the timed untraced passes, and the traced ones' metrics
    and spans.
    """
    from perfbench.tracing import NULL_TRACER, Tracer

    passes = [workload.run(inputs, NULL_TRACER, run_dir)]
    untraced, traced, spans = [], [], []
    min_passes = MIN_PASSES * (2 if trace else 1)
    n_setups = 1 if trace else SETUP_REPEATS
    t0 = time.perf_counter()
    for i in itertools.count():
        if trace and i % 2 == 1:
            tracer = Tracer(f"{run_id}-p{i}")
            p = workload.run(inputs, tracer, run_dir)
            traced.append(layer_metrics(p, tracer.spans))
            spans.extend(tracer.spans)
        else:
            p = workload.run(inputs, NULL_TRACER, run_dir)
            untraced.append(p)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if len(setups) < n_setups \
                and elapsed >= len(setups) * seconds / n_setups:
            time_setup(workload, seed, run_dir, setups)
            elapsed = time.perf_counter() - t0
        estimate = statistics.median(q.wall_s for q in passes[1:])
        if i + 1 >= min_passes and elapsed + estimate > seconds:
            while len(setups) < n_setups:
                time_setup(workload, seed, run_dir, setups)
            return passes, untraced, traced, spans


def time_setup(workload, seed: int, run_dir: Path, setups: list[float]):
    """Set ``workload`` up in a fresh directory, append the host seconds
    it took to ``setups`` and return the inputs."""
    t0 = time.perf_counter()
    inputs = workload.setup(seed, run_dir / f"setup{len(setups)}")
    setups.append(time.perf_counter() - t0)
    return inputs


def format_digests(value, depth: int = 4, indent: int = 0) -> str:
    """``digests.json`` text: one key per line down to the units, each
    unit's output on one line, so a changed output is a one-line diff."""
    if depth == 0 or not isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    pad = " " * (indent + 1)
    items = ",\n".join(
        f"{pad}{json.dumps(k)}: {format_digests(v, depth - 1, indent + 1)}"
        for k, v in sorted(value.items())
    )
    return "{\n" + items + "\n" + " " * indent + "}"


def _run(args, run_dir: Path) -> int:
    import tempfile

    tempfile.tempdir = str(run_dir / "tmp")
    from perfbench.tracing import write_spans
    from perfbench.workloads import (
        BATCH_WORKERS,
        DEFAULT_SEED,
        WORKLOADS,
        serial_sweep_seconds,
    )

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times: list[float] = []
    inputs = time_setup(workload, args.seed, run_dir, setup_times)
    run_id = f"{workload.name}-s{args.seed}"
    passes, untraced, traced, spans = measure(
        workload, inputs, args.seconds, bool(args.trace), run_id, run_dir,
        args.seed, setup_times,
    )
    walls = [p.wall_s for p in untraced]

    digests = json.loads(DIGESTS.read_text())
    if args.write_digests:
        if args.seed != DEFAULT_SEED or any(p.errors for p in passes):
            print("perfbench: digests are written only from an error-free "
                  f"run at seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        digests["workloads"][workload.name] = {
            "seeded": passes[0].seeded, "fixed": passes[0].fixed,
        }
        DIGESTS.write_text(format_digests(digests) + "\n")
    ref = digests["workloads"].get(workload.name, {})
    attempted, failed, reasons = check_passes(
        passes,
        ref.get("seeded") if args.seed == digests["seed"] else None,
        ref.get("fixed"),
    )

    if args.trace:
        units = PER_LAYER
        values = {
            name: statistics.median(t[name] for t in traced)
            for name in PER_LAYER
        }
        values["trace.overhead_s"] = (
            values["trace.wall_s"] - statistics.median(walls)
        )
        batch = inputs.get("batch_grid")
        if batch is not None:
            serial_s = serial_sweep_seconds(batch)
            values["service.overhead_ms_per_job"] = 1000.0 * (
                BATCH_WORKERS * values["service.batch_s"] - serial_s
            ) / len(batch["grid"])
        write_spans(spans, WORK / "spans" / f"{run_id}.jsonl")
    else:
        units = END_TO_END
        values = {
            # Read before the import timing starts child interpreters,
            # so the children counted are the pool workers.
            "peak_rss_mb": _peak_rss_mb(),
            "wall_s": statistics.median(walls),
            "sim_instr_per_s": statistics.median(
                _rate(p.instructions, p.wall_s) for p in untraced
            ),
        }
        values["setup_s"] = import_seconds() + statistics.median(
            setup_times
        )

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(passes) - 1} + 1 warm-up ({_host_line()})")
    samples = {"wall_s": walls, "setup_s": setup_times}
    for name, unit_name in units.items():
        extra = _percentile_line(samples[name]) if name in samples else ""
        print(f"  {name:<30} {values[name]:>14.6g} {unit_name:<8} {extra}")
    print(f"  {'failed_frac':<30} {failed / max(attempted, 1):>14.6g} "
          f"{'ratio':<8} ({failed} of {attempted} units)")
    for name, reason in sorted(reasons.items())[:10]:
        print(f"  FAILED {name}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit_name}
            for name, unit_name in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
