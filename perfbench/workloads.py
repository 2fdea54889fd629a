"""The benchmark workloads.

Four parts, each a path through the simulator, and two workloads made
of them: ``replay`` runs ``fig3_sweep`` then ``cosim_mesh``, and
``gen_batch`` runs ``trace_gen`` then ``batch_grid`` (README, "Why two
workloads").

Each part and each workload has a ``setup(seed, work)`` that builds its
inputs (the part users pay once, before the first pass) and a
``run(inputs, tracer, work)`` that performs one pass and returns a
:class:`Pass`.  All workloads are closed loops: one caller, the next
unit starts when the previous one returns.

A pass reports its *units* (one app build plus run, one ``simulate``
call, one ``run_cosim``, one batch job, one trace-cache load) with
their simulated outputs.  Outputs are plain JSON values so they can be
compared with the committed digests in ``digests.json`` and between
passes.  ``seeded`` outputs depend on ``--seed``; ``fixed`` outputs
come from inputs that take no seed (``TraceStore`` and ``run_batch``
use the applications' built-in seeds) and are checked on every seed.

Every span name is a layer of the simulator, named after its module:
``apps.build``, ``apps.verify``, ``tango.run``, ``trace_cache.load``,
``cpu.static``, ``cpu.ds.<model>``, ``report.render``,
``cosim.run.<kind>``, ``service.batch``, ``service.rerun``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

from repro.apps import APP_NAMES, build_app
from repro.cosim import run_cosim
from repro.cpu import ProcessorConfig, simulate, simulate_base
from repro.experiments.figure3 import figure3_configs, format_figure3
from repro.experiments.runner import CosimRun, TraceStore
from repro.obs.metrics import MetricsRegistry
from repro.service.batch import run_batch, run_sweep_job
from repro.service.jobs import expand_grid
from repro.service.store import ResultStore
from repro.tango import MultiprocessorConfig, TangoExecutor

from .tracing import NULL_TRACER

#: Application size for every workload.  ``tiny`` keeps one pass short
#: enough that a run measures many passes (see README, "Scale").
PRESET = "tiny"
N_PROCS = 16
#: The seed whose outputs ``digests.json`` holds.
DEFAULT_SEED = 1

#: trace_gen and fig3_sweep run each app at this many input seeds.  A
#: tiny app's work varies with its seed (the CPU-0 trace of LOCUS by
#: 20%, of PTHOR by 13% over seeds 1-10); summing three inputs keeps a
#: pass's work, and so its wall time, steady from one ``--seed`` to the
#: next.
INPUTS_PER_APP = 3

COSIM_APPS = ("mp3d", "ocean")
COSIM_KINDS = ("base", "ds")
BATCH_WORKERS = 2


@dataclass
class Pass:
    """Outcome of one pass of a workload."""

    wall_s: float = 0.0
    #: Instructions processed (executed or replayed) in the pass.
    instructions: int = 0
    #: Units attempted in the pass.
    attempted: int = 0
    seeded: dict[str, object] = field(default_factory=dict)
    fixed: dict[str, object] = field(default_factory=dict)
    #: Units that raised or failed an output invariant: unit -> reason.
    errors: dict[str, str] = field(default_factory=dict)
    #: Work counts for the per-layer metrics.
    counts: dict[str, float] = field(default_factory=dict)


def _json(value):
    """Normalise ``value`` to what a JSON round trip returns."""
    return json.loads(json.dumps(value, sort_keys=True))


def breakdown_row(bd) -> dict:
    """Every field of an ``ExecutionBreakdown``, as JSON values."""
    row = asdict(bd)
    row["total"] = bd.total
    return _json(row)


def breakdown_error(bd, trace_len: int) -> str | None:
    """Output invariants every breakdown must meet, on any seed."""
    parts = bd.busy + bd.sync + bd.read + bd.write + bd.other
    total = bd.extras.get("cycles", bd.total)
    if parts != total:
        return f"{bd.label}: components sum to {parts}, total {total}"
    if bd.instructions != trace_len:
        return (
            f"{bd.label}: {bd.instructions} instructions, trace has "
            f"{trace_len}"
        )
    return None


def input_seeds(seed: int) -> range:
    """The ``INPUTS_PER_APP`` app input seeds derived from ``seed``."""
    return range(INPUTS_PER_APP * seed, INPUTS_PER_APP * (seed + 1))


def _functional_run(app: str, seed: int, trace_cpus: tuple[int, ...],
                    record_sync_schedule: bool = False,
                    tracer=NULL_TRACER):
    """``build_app`` + ``TangoExecutor.run`` + ``Workload.verify``, the
    steps of ``TraceStore._generate`` with a seeded input."""
    with tracer.span("apps.build"):
        workload = build_app(app, n_procs=N_PROCS, preset=PRESET, seed=seed)
    config = MultiprocessorConfig(
        n_cpus=N_PROCS, trace_cpus=trace_cpus,
        record_sync_schedule=record_sync_schedule,
    )
    with tracer.span("tango.run"):
        result = TangoExecutor(
            workload.programs, config, memory=workload.memory
        ).run()
    with tracer.span("apps.verify"):
        workload.verify(result.memory)
    return workload, result


def _fill_trace_cache(cache_dir: Path) -> None:
    """Generate the built-in-seed CPU-0 traces into ``cache_dir``."""
    TraceStore(preset=PRESET, cache_dir=cache_dir).all_apps()


class TraceGen:
    """Cold path of ``simulate <app>``: functional runs, then cache
    loads."""

    name = "trace_gen"

    def setup(self, seed: int, work: Path) -> dict:
        cache = work / "traces"
        _fill_trace_cache(cache)
        return {"seed": seed, "cache": cache}

    def run(self, inputs: dict, tracer, work: Path) -> Pass:
        out = Pass()
        registry = MetricsRegistry(enabled=True)
        executed = 0
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            for app, sub in product(APP_NAMES, input_seeds(inputs["seed"])):
                unit = f"run:{app}@{sub}"
                out.attempted += 1
                try:
                    _, result = _functional_run(
                        app, sub, (0,), tracer=tracer
                    )
                    trace = result.trace(0)
                    with tracer.span("cpu.static"):
                        base = simulate_base(trace)
                except Exception as exc:  # a failed unit, not a crash
                    out.errors[unit] = repr(exc)
                    continue
                n = result.stats.total_instructions()
                executed += n
                out.seeded[unit] = {
                    "instructions": n,
                    "trace_len": len(trace),
                    "base": breakdown_row(base),
                }
                err = breakdown_error(base, len(trace))
                if err:
                    out.errors[unit] = err
            store = TraceStore(
                preset=PRESET, cache_dir=inputs["cache"], metrics=registry
            )
            for app in APP_NAMES:
                unit = f"load:{app}"
                out.attempted += 1
                try:
                    with tracer.span("trace_cache.load"):
                        run = store.get(app)
                except Exception as exc:
                    out.errors[unit] = repr(exc)
                    continue
                out.fixed[unit] = {
                    "trace_len": len(run.trace),
                    "base": breakdown_row(run.base),
                }
        out.wall_s = time.perf_counter() - t0
        out.instructions = executed
        disk_hits = registry.counter("trace.disk_hits").value
        out.counts = {
            "tango.instructions": executed,
            "cpu.static.instructions": sum(
                v["trace_len"] for v in out.seeded.values()
            ),
            "trace_cache.gets": len(APP_NAMES),
            "trace_cache.disk_hits": disk_hits,
        }
        return out


def _cpu0_traces(seed: int) -> dict:
    """CPU-0 traces keyed ``<app>@<input seed>``, for the
    :func:`input_seeds` of ``seed``."""
    traces = {}
    for app in APP_NAMES:
        for sub in input_seeds(seed):
            _, result = _functional_run(app, sub, (0,))
            traces[f"{app}@{sub}"] = result.trace(0)
    return traces


class Fig3Sweep:
    """Warm path of ``simulate``/``figure3``: the 14 Figure 3 configs
    over seeded CPU-0 traces of the five apps, serially and in
    memory."""

    name = "fig3_sweep"

    def setup(self, seed: int, work: Path) -> dict:
        return {"traces": _cpu0_traces(seed), "configs": figure3_configs()}

    def run(self, inputs: dict, tracer, work: Path) -> Pass:
        out = Pass()
        counts = Counter()
        results = {}
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            for app, trace in inputs["traces"].items():
                runs = results[app] = []
                for cfg in inputs["configs"]:
                    unit = f"{app}:{cfg.label()}"
                    out.attempted += 1
                    key = "cpu.ds" if cfg.kind == "ds" else "cpu.static"
                    layer = f"{key}.{cfg.model}" if cfg.kind == "ds" else key
                    try:
                        with tracer.span(layer):
                            bd = simulate(trace, cfg)
                    except Exception as exc:
                        out.errors[unit] = repr(exc)
                        continue
                    runs.append(bd)
                    counts[f"{key}.instructions"] += len(trace)
                    out.seeded[unit] = breakdown_row(bd)
                    err = breakdown_error(bd, len(trace))
                    if err:
                        out.errors[unit] = err
            out.attempted += 1
            try:
                with tracer.span("report.render"):
                    text = format_figure3(results)
            except Exception as exc:
                out.errors["report"] = repr(exc)
            else:
                out.seeded["report"] = hashlib.sha256(
                    text.encode()
                ).hexdigest()
        out.wall_s = time.perf_counter() - t0
        out.instructions = sum(counts.values())
        out.counts = counts
        return out


class CosimMesh:
    """All 16 processors co-simulated on one shared mesh fabric."""

    name = "cosim_mesh"

    def setup(self, seed: int, work: Path) -> dict:
        runs = {}
        for app in COSIM_APPS:
            workload, result = _functional_run(
                app, seed, tuple(range(N_PROCS)), record_sync_schedule=True
            )
            runs[app] = CosimRun(
                app=app,
                traces=[result.trace(cpu) for cpu in range(N_PROCS)],
                schedule=result.sync_schedule,
                stats=result.stats,
                params=dict(workload.params),
            )
        return {"runs": runs}

    def run(self, inputs: dict, tracer, work: Path) -> Pass:
        out = Pass()
        counts = Counter()
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            for app, crun in inputs["runs"].items():
                lens = [len(t) for t in crun.traces]
                for kind in COSIM_KINDS:
                    unit = f"{app}:{kind}"
                    out.attempted += 1
                    cfg = ProcessorConfig(kind=kind, model="RC", window=64)
                    try:
                        with tracer.span(f"cosim.run.{kind}"):
                            res = run_cosim(
                                crun, cfg, network_kind="mesh",
                                line_size=16,
                            )
                    except Exception as exc:
                        out.errors[unit] = repr(exc)
                        continue
                    lats = [x for node in res.miss_latencies for x in node]
                    out.instructions += sum(lens)
                    counts[f"cosim.misses.{kind}"] += len(lats)
                    counts["net.miss_cycles"] += sum(lats)
                    out.seeded[unit] = {
                        "cycles": res.cycles(),
                        "misses": len(lats),
                        "miss_cycles": sum(lats),
                    }
                    for bd, n in zip(res.breakdowns, lens):
                        err = breakdown_error(bd, n)
                        if err:
                            out.errors[unit] = err
        out.wall_s = time.perf_counter() - t0
        out.counts = counts
        return out


def batch_grid_jobs() -> list:
    """The 290-job ``batch`` grid (five apps at ``tiny``)."""
    return expand_grid(
        APP_NAMES,
        kinds=("base", "ssbr", "ss", "ds"),
        models=("SC", "PC", "WO", "RC"),
        windows=(16, 32, 64, 128, 256),
        networks=("ideal", "mesh"),
        preset=PRESET,
    )


class BatchGrid:
    """The ``batch`` service path: one grid into a fresh out dir, then
    the same grid again, served by the result store."""

    name = "batch_grid"

    def setup(self, seed: int, work: Path) -> dict:
        cache = work / "traces"
        _fill_trace_cache(cache)
        return {"cache": cache, "grid": batch_grid_jobs()}

    def run(self, inputs: dict, tracer, work: Path) -> Pass:
        out = Pass()
        grid = inputs["grid"]
        out_dir = work / "batch"
        shutil.rmtree(out_dir, ignore_errors=True)  # a fresh out dir
        registry = MetricsRegistry(enabled=True)
        reports = []
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            for layer in ("service.batch", "service.rerun"):
                with tracer.span(layer):
                    reports.append(run_batch(
                        grid, jobs=BATCH_WORKERS, cache_dir=inputs["cache"],
                        out_dir=out_dir, metrics=registry,
                    ))
        out.wall_s = time.perf_counter() - t0
        first, rerun = reports
        store = ResultStore(first.store_dir)
        for prefix, report in (("job", first), ("rerun", rerun)):
            for record in report.records:
                unit = f"{prefix}:{record.label}"
                out.attempted += 1
                bd = store.get(record.key)
                if record.state != "done" or bd is None:
                    out.errors[unit] = f"state {record.state}"
                    continue
                row = breakdown_row(bd)
                if prefix == "job":
                    out.fixed[unit] = row
                    out.instructions += bd.instructions
                elif row != out.fixed.get(f"job:{record.label}"):
                    out.errors[unit] = "differs from the first send"
        out.counts = {
            "service.jobs": len(grid),
            "service.store_hits": sum(
                r.source == "store" for r in rerun.records
            ),
            "service.retries": registry.counter("service.retries").value,
            "service.worker_restarts": registry.counter(
                "service.worker_restarts"
            ).value,
        }
        return out


def serial_sweep_seconds(inputs: dict) -> float:
    """Host seconds to run the batch grid serially in-process through
    ``run_sweep_job`` — the reference for the service's overhead."""
    store = TraceStore(preset=PRESET, cache_dir=inputs["cache"])
    t0 = time.perf_counter()
    for job in inputs["grid"]:
        run_sweep_job(job, store)
    return time.perf_counter() - t0


class Composite:
    """A workload that runs its parts one after the other in each pass.

    Its inputs map each part's name to that part's inputs; its units
    are the parts' units, named ``<part>/<unit>``.
    """

    def __init__(self, name: str, *parts) -> None:
        self.name = name
        self.parts = parts

    def setup(self, seed: int, work: Path) -> dict:
        return {part.name: part.setup(seed, work) for part in self.parts}

    def run(self, inputs: dict, tracer, work: Path) -> Pass:
        out = Pass()
        counts = Counter()
        t0 = time.perf_counter()
        for part in self.parts:
            p = part.run(inputs[part.name], tracer, work)
            out.instructions += p.instructions
            out.attempted += p.attempted
            for group in ("seeded", "fixed", "errors"):
                getattr(out, group).update(
                    (f"{part.name}/{unit}", value)
                    for unit, value in getattr(p, group).items()
                )
            counts.update(p.counts)
        out.wall_s = time.perf_counter() - t0
        out.counts = dict(counts)
        return out


WORKLOADS = {
    w.name: w for w in (
        Composite("replay", Fig3Sweep(), CosimMesh()),
        Composite("gen_batch", TraceGen(), BatchGrid()),
    )
}
