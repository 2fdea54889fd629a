"""Tests for the interconnect/directory timing subsystem (repro.net).

Covers the event list (ordering, FIFO ties, far-future events, idle
clock rewind), the topologies (crossbar port serialization, mesh X-Y routes),
the directory's request serialization, transaction-level latencies, the
ideal-backend equivalence of the executor on every application, the
compiled-vs-reference differential under a real network, the faulting-PC
annotation on misaligned accesses, and the contention experiment's
headline effect (overlapped DS misses see a more loaded network than
BASE's serial ones).
"""

import time

import pytest

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES
from repro.asm import AsmBuilder
from repro.mem import CoherentMemorySystem, MemoryError_
from repro.net import (
    NETWORK_KINDS,
    ContentionNetwork,
    Crossbar,
    DirectoryModel,
    EventWheel,
    Mesh,
    NetworkConfig,
    build_network,
)


class TestEventWheel:
    def test_events_fire_in_time_order(self):
        wheel = EventWheel()
        fired = []
        wheel.schedule(5, lambda t: fired.append(("a", t)))
        wheel.schedule(3, lambda t: fired.append(("b", t)))
        wheel.schedule(9, lambda t: fired.append(("c", t)))
        wheel.run()
        assert fired == [("b", 3), ("a", 5), ("c", 9)]

    def test_same_cycle_events_fire_fifo(self):
        wheel = EventWheel()
        fired = []
        for name in "abc":
            wheel.schedule(7, lambda t, n=name: fired.append(n))
        wheel.run()
        assert fired == ["a", "b", "c"]

    def test_far_future_event_fires_after_near_one(self):
        wheel = EventWheel()
        fired = []
        wheel.schedule(2000, lambda t: fired.append(("far", t)))
        wheel.schedule(2, lambda t: fired.append(("near", t)))
        wheel.run()
        assert fired == [("near", 2), ("far", 2000)]

    def test_event_a_billion_cycles_ahead_fires_promptly(self):
        # The run jumps straight to the next event's time; stepping one
        # cycle at a time across the gap would take minutes.
        wheel = EventWheel()
        fired = []
        wheel.schedule(10**9, fired.append)
        start = time.perf_counter()
        assert wheel.run() == 10**9
        assert time.perf_counter() - start < 1.0
        assert fired == [10**9]

    def test_callback_may_schedule_at_current_time(self):
        wheel = EventWheel()
        fired = []
        wheel.schedule(
            4, lambda t: wheel.schedule(t, lambda u: fired.append(u))
        )
        wheel.run()
        assert fired == [4]

    def test_idle_wheel_rewinds_for_earlier_transaction(self):
        # Per-CPU virtual clocks restart at 0 between model replays; an
        # idle wheel must accept the earlier timestamp verbatim instead
        # of clamping it to the old present.
        wheel = EventWheel()
        fired = []
        wheel.schedule(100, fired.append)
        wheel.run()
        wheel.schedule(10, fired.append)
        wheel.run()
        assert fired == [100, 10]

    def test_busy_wheel_clamps_stragglers_to_present(self):
        wheel = EventWheel()
        fired = []

        def first(t):
            fired.append(t)
            wheel.schedule(2, fired.append)  # in the wheel's past

        wheel.schedule(6, first)
        wheel.run()
        assert fired == [6, 6]


class TestTopologies:
    def test_crossbar_routes_inject_then_eject(self):
        xbar = Crossbar(4)
        route = xbar.route(1, 3)
        assert len(route) == 2
        assert xbar.route(2, 2) == ()
        # Every node pair shares the destination's ejection link.
        assert xbar.route(0, 3)[1] == xbar.route(1, 3)[1]
        assert xbar.route(0, 3)[0] != xbar.route(1, 3)[0]

    def test_mesh_xy_hop_counts(self):
        mesh = Mesh(16, width=4)
        # Manhattan distance plus inject and eject.
        assert mesh.hops(0, 15) == 8
        assert mesh.hops(0, 1) == 3
        assert mesh.hops(5, 5) == 0
        assert mesh.hops(3, 0) == 5

    def test_mesh_xy_route_is_dimension_ordered(self):
        mesh = Mesh(16, width=4)
        # 0 -> 10: X first (0->2), then Y (2->10); the X-leg links are
        # shared with the pure-horizontal route 0 -> 2.
        assert mesh.route(0, 10)[:3] == mesh.route(0, 2)[:3]

    def test_mesh_non_square_covers_all_nodes(self):
        mesh = Mesh(6, width=3)
        for src in range(6):
            for dst in range(6):
                hops = mesh.hops(src, dst)
                assert hops == 0 if src == dst else hops >= 3

    def test_link_queueing_serializes_messages(self):
        # Two back-to-back messages over the same route: the second
        # departs only when the first releases the link.
        net = ContentionNetwork(Crossbar(4), line_size=16)
        first = net._send(0, 1, 0)
        second = net._send(0, 1, 0)
        assert second > first


class TestDirectory:
    def test_home_distribution_round_robin(self):
        d = DirectoryModel(4, occupancy=4)
        assert [d.home(line) for line in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_racing_upgrades_serialize_at_home(self):
        # Two CPUs upgrade the same line at the same instant: the
        # directory's occupancy forces one to wait for the other.
        net = ContentionNetwork(Crossbar(4), line_size=16)
        lat0 = net.write_miss(0, line=5, sharers=(1,), now=0, upgrade=True)
        lat1 = net.write_miss(1, line=5, sharers=(0,), now=0, upgrade=True)
        assert lat1 > lat0

    def test_distinct_homes_do_not_serialize(self):
        net = ContentionNetwork(Crossbar(8), line_size=16)
        lat0 = net.replay_miss(0, addr=0 * 16, is_write=False, now=0)
        lat1 = net.replay_miss(1, addr=1 * 16, is_write=False, now=0)
        assert lat0 == lat1


class TestTransactions:
    def test_remote_dirty_line_costs_three_legs(self):
        cfg = NetworkConfig()
        net = ContentionNetwork(Crossbar(4), line_size=16, config=cfg)
        from_owner = net.read_miss(0, line=1, owner=2, now=0)
        net.reset()
        from_memory = net.read_miss(0, line=1, owner=None, now=0)
        # Memory is slower than a cache but two legs beat three plus a
        # lookup only through the latency parameters, not by fiat.
        assert from_owner != from_memory
        assert net.latencies == [from_memory]

    def test_upgrade_waits_for_ack_not_data(self):
        net = ContentionNetwork(Crossbar(4), line_size=16)
        upgrade = net.write_miss(0, line=1, sharers=(2,), now=0,
                                 upgrade=True)
        net.reset()
        full = net.write_miss(0, line=1, sharers=(2,), now=0)
        assert upgrade <= full

    def test_summary_percentiles(self):
        net = ContentionNetwork(Crossbar(4), line_size=16)
        assert net.summary()["count"] == 0
        for cpu in range(4):
            net.replay_miss(cpu, addr=cpu * 64, is_write=False, now=0)
        s = net.summary()
        assert s["count"] == 4
        assert s["p50"] <= s["p99"] <= s["max"]
        assert s["mean"] > 0

    def test_build_network_kinds(self):
        assert build_network("ideal", 4, 16) is None
        assert isinstance(build_network("crossbar", 4, 16).topology,
                          Crossbar)
        assert isinstance(build_network("mesh", 16, 16).topology, Mesh)
        with pytest.raises(ValueError):
            build_network("torus", 4, 16)
        assert set(NETWORK_KINDS) == {"ideal", "crossbar", "mesh"}


class TestCoherenceIntegration:
    def test_ideal_path_uses_fixed_penalty(self):
        mem = CoherentMemorySystem(n_cpus=2, miss_penalty=50)
        hit, stall = mem.access_ht(0, 0x100, False)
        assert (hit, stall) == (False, 50)

    def test_network_path_varies_latency(self):
        net = build_network("crossbar", 2, 16)
        mem = CoherentMemorySystem(n_cpus=2, miss_penalty=50, network=net)
        _, first = mem.access_ht(0, 0x100, False, 0)
        _, second = mem.access_ht(1, 0x200, True, 0)
        assert first != 50 or second != 50
        assert len(net.latencies) == 2

    def test_invalidation_acks_charged_to_writer(self):
        # Upgrades carry no data, so their latency is the invalidation/
        # ack round trip — it must grow with the sharer count.
        net = build_network("crossbar", 4, 16)
        mem = CoherentMemorySystem(n_cpus=4, miss_penalty=50, network=net)
        for cpu in range(4):
            mem.access_ht(cpu, 0x100, False, 0)
        net.reset()
        _, with_sharers = mem.access_ht(3, 0x100, True, 0)
        net2 = build_network("crossbar", 4, 16)
        mem2 = CoherentMemorySystem(n_cpus=4, miss_penalty=50, network=net2)
        mem2.access_ht(3, 0x100, False, 0)
        net2.reset()
        _, unshared = mem2.access_ht(3, 0x100, True, 0)
        assert with_sharers > unshared


def _run_app(app, network, compiled=True, n_procs=4):
    workload = build_app(app, n_procs=n_procs, preset="tiny")
    config = MultiprocessorConfig(
        n_cpus=n_procs, network=network,
        trace_cpus=tuple(range(n_procs)),
    )
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory,
        compiled=compiled,
    ).run()
    workload.verify(result.memory)
    return result


class TestExecutorIntegration:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_ideal_backend_matches_default(self, app):
        default = _run_app(app, "ideal")
        explicit = _run_app(app, NETWORK_KINDS[0])
        assert default.stats.total_cycles == explicit.stats.total_cycles
        for cpu in range(4):
            assert (default.trace(cpu).columns()
                    == explicit.trace(cpu).columns())

    @pytest.mark.parametrize("network", ("crossbar", "mesh"))
    def test_compiled_matches_reference_under_network(self, network):
        fast = _run_app("lu", network, compiled=True)
        slow = _run_app("lu", network, compiled=False)
        assert fast.stats.total_cycles == slow.stats.total_cycles
        for cpu in range(4):
            assert fast.trace(cpu).columns() == slow.trace(cpu).columns()

    @pytest.mark.parametrize("compiled", (True, False))
    def test_misaligned_access_reports_thread_and_pc(self, compiled):
        b = AsmBuilder("misaligned")
        a = b.ireg("a")
        r = b.ireg("r")
        b.la(a, 0x1002)  # not word-aligned
        b.lw(r, a)
        b.halt()
        config = MultiprocessorConfig(n_cpus=1)
        with pytest.raises(MemoryError_) as exc:
            TangoExecutor([b.build()], config, compiled=compiled).run()
        assert "misaligned word read at 0x1002" in str(exc.value)
        assert "(thread 0, pc 1)" in str(exc.value)

    def test_misaligned_message_identical_across_engines(self):
        messages = []
        for compiled in (True, False):
            b = AsmBuilder("misaligned")
            a = b.ireg("a")
            b.la(a, 0x1001)
            b.sw(a, a)
            b.halt()
            config = MultiprocessorConfig(n_cpus=1)
            with pytest.raises(MemoryError_) as exc:
                TangoExecutor([b.build()], config, compiled=compiled).run()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestContentionExperiment:
    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        from repro.experiments import TraceStore, run_contention

        store = TraceStore(
            n_procs=4, preset="tiny",
            cache_dir=tmp_path_factory.mktemp("traces"),
        )
        return run_contention(
            store, apps=("lu",), networks=("ideal", "mesh")
        )

    def test_ideal_rows_report_fixed_penalty(self, results):
        for _, summary in results["lu"]["ideal"]:
            assert summary["mean"] == 50.0
            assert summary["p50"] == summary["p99"] == 50

    def test_ds_sees_more_contention_than_base(self, results):
        rows = results["lu"]["mesh"]
        base_summary = rows[0][1]
        ds_summary = rows[-1][1]
        assert ds_summary["mean"] > base_summary["mean"]
        assert ds_summary["p99"] > base_summary["p99"]

    def test_ds_still_fastest_overall(self, results):
        rows = results["lu"]["mesh"]
        totals = [breakdown.total for breakdown, _ in rows]
        assert min(totals[1:]) < totals[0]

    def test_formatting_lists_all_backends(self, results):
        from repro.experiments import format_contention

        text = format_contention(results)
        assert "Contention — LU" in text
        assert "ideal" in text and "mesh" in text
        assert "p99" in text
