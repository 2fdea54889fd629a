"""Trace-driven processor models: BASE, SSBR, SS, and DS.

The four architectures of the paper's §4.1, all consuming the annotated
traces produced by :mod:`repro.tango`:

* ``BASE`` — in-order, no overlap at all (the normalisation reference);
* ``SSBR`` — statically scheduled, blocking reads, 16-deep write buffer;
* ``SS`` — statically scheduled, non-blocking reads (stall at first use);
* ``DS`` — dynamically scheduled with a reorder-buffer window of 16-256.

Use :func:`simulate` with a :class:`ProcessorConfig` for a uniform entry
point, or call the per-model functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consistency import ConsistencyModel, get_model
from ..tango import Trace
from .base import base_stepper, simulate_base
from .ds import (
    BranchTargetBuffer,
    DSConfig,
    DSProcessor,
    ds_fast_stepper,
    simulate_ds,
    simulate_ds_fast,
)
from .multicontext import (
    MultiContextConfig,
    MultiContextProcessor,
    simulate_multicontext,
)
from .requests import MemRequest, ReleaseNotify, SyncRequest, drive
from .scheduling import ScheduleStats, schedule_reads_early
from .results import ExecutionBreakdown
from .static import (
    WriteBuffer,
    simulate_ss,
    simulate_ssbr,
    ss_stepper,
    ssbr_stepper,
)
from .static_fast import (
    base_fast_stepper,
    simulate_base_fast,
    simulate_ss_fast,
    simulate_ssbr_fast,
    ss_fast_stepper,
    ssbr_fast_stepper,
)


# Process-wide default for ProcessorConfig.engine, so one switch (the
# CLI's global --engine flag) retargets every config built afterwards.
# Configs are built before any process-pool fan-out and pickle the
# resolved value with them, so workers inherit the choice.
DEFAULT_ENGINE = "fast"


@dataclass
class ProcessorConfig:
    """Uniform description of one processor/consistency configuration.

    Attributes:
        kind: "base", "ssbr", "ss" or "ds".
        model: consistency model name ("SC", "PC", "WO", "RC"); ignored
            for "base".
        window: reorder-buffer size for the DS processor.
        issue_width: instructions decoded/retired per cycle (DS only).
        perfect_bp: perfect branch prediction (DS only, Figure 4).
        ignore_deps: ignore register data dependences (DS only, Figure 4).
        ds: extra knobs forwarded into :class:`DSConfig`.
        engine: "fast" (default) runs the vectorized/event-driven
            engines of :mod:`repro.cpu.static_fast` and
            :mod:`repro.cpu.ds.event_engine`; "reference" runs the
            scalar oracles.  Results are byte-identical either way —
            the choice only affects throughput.
    """

    kind: str = "ds"
    model: str = "RC"
    window: int = 64
    issue_width: int = 1
    perfect_bp: bool = False
    ignore_deps: bool = False
    ds: dict = field(default_factory=dict)
    engine: str = field(default_factory=lambda: DEFAULT_ENGINE)

    def label(self) -> str:
        if self.kind == "base":
            return "BASE"
        name = f"{self.kind.upper()}-{self.model.upper()}"
        if self.kind == "ds":
            name += f"-w{self.window}"
            if self.issue_width != 1:
                name += f"-i{self.issue_width}"
            if self.perfect_bp:
                name += "-pbp"
            if self.ignore_deps:
                name += "-nodep"
        return name


def model_stepper(
    trace: Trace,
    config: ProcessorConfig,
    networked: bool = False,
    probe=None,
    live_sync: bool = False,
):
    """The configured processor model as a resumable stepper.

    The generator speaks the :mod:`repro.cpu.requests` protocol and
    returns the model's breakdown (published into ``probe`` when it is
    enabled).  ``networked`` means the driver answers each
    :class:`MemRequest` from a stateful network: the fast engines then
    yield at every miss, and every model keeps its clock from running
    backwards on a negative sync wait.  Without it the fast engines
    never yield.  ``live_sync`` asks for a model that suspends at each
    acquire and announces each release; only the scalar steppers do, so
    it selects them whatever ``config.engine`` says.
    """
    kind = config.kind.lower()
    engine = config.engine.lower()
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {config.engine!r}")
    fast = engine == "fast" and not live_sync
    label = config.label()
    if kind == "base":
        if fast:
            gen = base_fast_stepper(trace, label, networked=networked)
        else:
            gen = base_stepper(trace, label=label, clamp_time=networked)
    elif kind in ("ssbr", "ss"):
        model = get_model(config.model)
        if fast:
            steps = ssbr_fast_stepper if kind == "ssbr" else ss_fast_stepper
            gen = steps(
                trace, model, label=label, networked=networked, probe=probe
            )
        else:
            steps = ssbr_stepper if kind == "ssbr" else ss_stepper
            gen = steps(
                trace, model, label=label, clamp_time=networked, probe=probe
            )
    elif kind == "ds":
        model = get_model(config.model)
        ds_config = DSConfig(
            window=config.window,
            issue_width=config.issue_width,
            perfect_branch_prediction=config.perfect_bp,
            ignore_data_dependences=config.ignore_deps,
            **config.ds,
        )
        if fast:
            gen = ds_fast_stepper(
                trace, model, ds_config, label=label, probe=probe,
                networked=networked,
            )
        else:
            gen = DSProcessor(trace, model, ds_config, probe=probe).steps(
                label=label, live_sync=live_sync
            )
    else:
        raise ValueError(f"unknown processor kind {config.kind!r}")
    breakdown = yield from gen
    if probe is not None and probe.enabled:
        probe.publish_breakdown(breakdown)
    return breakdown


def simulate(
    trace: Trace, config: ProcessorConfig, network=None, probe=None
) -> ExecutionBreakdown:
    """Run the configured processor model over ``trace``.

    ``network`` (a :class:`repro.net.ContentionNetwork`) re-times every
    miss through a contended interconnect at the cycle the model issues
    it; None keeps the trace's baked fixed-penalty stalls.  ``probe``
    (a :class:`repro.obs.Probe`) collects occupancy histograms, retire
    spans (DS), and the resulting breakdown; results are byte-identical
    with or without one.  Drives :func:`model_stepper` to completion.
    """
    stepper = model_stepper(
        trace, config, networked=network is not None, probe=probe
    )
    return drive(stepper, network=network, cpu=trace.cpu)


__all__ = [
    "BranchTargetBuffer",
    "ConsistencyModel",
    "DSConfig",
    "DSProcessor",
    "ExecutionBreakdown",
    "MemRequest",
    "MultiContextConfig",
    "MultiContextProcessor",
    "ProcessorConfig",
    "ReleaseNotify",
    "ScheduleStats",
    "SyncRequest",
    "base_fast_stepper",
    "base_stepper",
    "drive",
    "ds_fast_stepper",
    "model_stepper",
    "schedule_reads_early",
    "simulate_multicontext",
    "ss_fast_stepper",
    "ss_stepper",
    "ssbr_fast_stepper",
    "ssbr_stepper",
    "WriteBuffer",
    "simulate",
    "simulate_base",
    "simulate_base_fast",
    "simulate_ds",
    "simulate_ds_fast",
    "simulate_ss",
    "simulate_ss_fast",
    "simulate_ssbr",
    "simulate_ssbr_fast",
]
