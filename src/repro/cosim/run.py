"""High-level co-simulation entry points.

:func:`build_node` maps one (trace, processor-config) pair onto a
stepper handle; :func:`run_cosim` co-simulates a whole
:class:`CosimRun` (every processor of the application on one shared
fabric); :func:`replay_solo` routes a *single* processor through the
same engine and a fresh fabric — the ``contention`` experiment's replay
mode, now sharing the cosim code path instead of duplicating it.
"""

from __future__ import annotations

from ..cpu import (
    MultiContextConfig,
    MultiContextProcessor,
    ProcessorConfig,
    model_stepper,
)
from ..net import build_network
from .engine import CosimEngine, CosimNode, CosimResult, GenStepper


def build_node(
    trace,
    config: ProcessorConfig,
    has_network: bool = False,
    live_sync: bool = False,
    probe=None,
) -> CosimNode:
    """Wrap one processor model around ``trace`` as a cosim node.

    Every engine is a resumable stepper (:func:`repro.cpu.model_stepper`)
    behind one :class:`GenStepper`.  With a shared network the model
    yields at each miss; on the ideal fabric with replayed sync the fast
    engines never yield and the node completes in ``start()``.  Live
    sync runs the scalar steppers, the only ones that suspend at sync
    operations.
    """
    gen = model_stepper(
        trace, config, networked=has_network, probe=probe,
        live_sync=live_sync,
    )
    # A parked DS stepper cannot drain its store buffer, so the engine
    # must answer PENDING instead of suspending it.
    parkable = not (live_sync and config.kind.lower() == "ds")
    return CosimNode(
        GenStepper(gen), label=config.label(), net_cpu=trace.cpu,
        parkable=parkable,
    )


def _build_mc_nodes(traces, contexts: int, switch_penalty: int):
    """Group the per-cpu traces into multicontext processors."""
    if contexts < 1:
        raise ValueError("need at least one context per processor")
    mc_config = MultiContextConfig(switch_penalty=switch_penalty)
    nodes = []
    for node_idx, start in enumerate(range(0, len(traces), contexts)):
        group = traces[start:start + contexts]
        label = f"MC-k{contexts}"
        gen = MultiContextProcessor(group, mc_config).steps(label=label)
        nodes.append(
            CosimNode(GenStepper(gen), label=label, net_cpu=node_idx)
        )
    return nodes


def run_cosim(
    crun,
    config: ProcessorConfig,
    network_kind: str = "ideal",
    line_size: int = 4,
    net_config=None,
    sync_mode: str = "replay",
    contexts: int = 1,
    switch_penalty: int = 4,
    probe=None,
) -> CosimResult:
    """Co-simulate every processor of ``crun`` on one shared fabric.

    ``crun`` is a :class:`repro.experiments.runner.CosimRun` (all
    per-cpu traces plus the recorded sync schedule).  ``config.kind``
    may additionally be ``"mc"``: the traces are then grouped
    ``contexts`` per physical node into multicontext processors (which
    only support replayed sync — a parked context would block its
    siblings on the shared request stream).
    """
    kind = config.kind.lower()
    live = sync_mode == "live"
    if kind == "mc":
        if live:
            raise ValueError("multicontext nodes require --sync replay")
        nodes = _build_mc_nodes(crun.traces, contexts, switch_penalty)
    else:
        nodes = [
            build_node(
                trace, config,
                has_network=network_kind != "ideal",
                live_sync=live, probe=probe,
            )
            for trace in crun.traces
        ]
    network = build_network(network_kind, len(nodes), line_size, net_config)
    if network is not None and probe is not None:
        network.attach_probe(probe)
    engine = CosimEngine(
        nodes, network=network, schedule=crun.schedule,
        sync_mode=sync_mode, probe=probe,
    )
    result = engine.run()
    result.network_kind = network_kind
    if probe is not None and probe.enabled:
        _publish(probe, result, network)
    return result


def _publish(probe, result: CosimResult, network) -> None:
    """Push per-processor and fabric statistics into the probe."""
    metrics = probe.metrics
    for idx, breakdown in enumerate(result.breakdowns):
        prefix = f"cosim.cpu{idx}"
        metrics.counter(f"{prefix}.cycles").inc(breakdown.total)
        miss = result.node_miss_summary(idx)
        metrics.counter(f"{prefix}.misses").inc(miss["count"])
        metrics.gauge(f"{prefix}.miss_mean").set(miss["mean"])
        metrics.gauge(f"{prefix}.miss_p99").set(miss["p99"])
    if network is not None:
        network.publish(metrics, prefix="cosim.net")


def replay_solo(
    trace,
    config: ProcessorConfig,
    network_kind: str,
    n_nodes: int,
    line_size: int,
    net_config=None,
    probe=None,
):
    """One processor alone on a fresh fabric, via the cosim engine.

    This is the ``contention`` experiment's replay mode: the same
    engine/network path as :func:`run_cosim`, but with a single node, so
    queueing reflects only this processor's own overlapped misses.
    Returns ``(breakdown, network)`` — ``network`` is None under
    ``"ideal"``.
    """
    network = build_network(network_kind, n_nodes, line_size, net_config)
    node = build_node(
        trace, config, has_network=network is not None, probe=probe
    )
    engine = CosimEngine([node], network=network, probe=probe)
    result = engine.run()
    return result.breakdowns[0], network
