"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.tracing import NULL_TRACER, Span, Tracer, self_times
from perfbench.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    Composite,
    Pass,
    TraceGen,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + list(args), cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


# -- metric-name grammar ----------------------------------------------


def test_metric_names_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names + list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def test_spec_matches_the_metrics_the_benchmark_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# -- self-time arithmetic ---------------------------------------------


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, "r")


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 5.0, parent=0),
        _span(2, "c", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 5.0, parent=0),
        _span(2, "b", 3.0, 8.0, parent=0),
        # Sticks out of its parent: only [9, 10] is inside it.
        _span(3, "c", 9.0, 12.0, parent=0),
    ]
    st = self_times(spans)
    assert st["a"] == pytest.approx(10.0 - 7.0 - 1.0)
    assert st["b"] == pytest.approx(4.0 + 5.0)
    assert st["c"] == pytest.approx(3.0)


def test_self_time_of_zero_length_spans():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "z", 5.0, 5.0, parent=0),
        _span(2, "p", 7.0, 7.0),
        _span(3, "q", 7.0, 7.0, parent=2),
    ]
    assert self_times(spans) == {"a": 10.0, "z": 0.0, "p": 0.0, "q": 0.0}


def test_tracer_records_parents_and_null_tracer_records_nothing():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert {s.run_id for s in tracer.spans} == {"run-1"}
    with NULL_TRACER.span("outer"):
        pass
    assert NULL_TRACER.spans == []


# -- output checks ----------------------------------------------------


@pytest.fixture(scope="module")
def trace_gen_pass(tmp_path_factory):
    """One pass of the ``trace_gen`` part, named as in ``gen_batch``."""
    workload = Composite("gen_batch", TraceGen())
    work = tmp_path_factory.mktemp("trace_gen")
    inputs = workload.setup(DEFAULT_SEED, work)
    return workload.run(inputs, NULL_TRACER, work)


def _trace_gen_digest() -> dict:
    ref = json.loads(run.DIGESTS.read_text())["workloads"]["gen_batch"]
    return {
        group: {k: v for k, v in units.items() if k.startswith("trace_gen/")}
        for group, units in ref.items()
    }


def test_outputs_match_the_committed_digest(trace_gen_pass):
    ref = _trace_gen_digest()
    attempted, failed, _ = run.check_passes(
        [trace_gen_pass], ref["seeded"], ref["fixed"]
    )
    assert (attempted, failed) == (20, 0)


@pytest.mark.parametrize("group", ["seeded", "fixed"])
def test_a_tampered_digest_counts_as_a_failed_unit(trace_gen_pass, group):
    ref = _trace_gen_digest()
    unit = sorted(ref[group])[0]
    ref[group][unit]["trace_len"] += 1
    attempted, failed, reasons = run.check_passes(
        [trace_gen_pass, trace_gen_pass], ref["seeded"], ref["fixed"]
    )
    assert (attempted, failed) == (40, 2)
    assert reasons == {unit: "differs from the committed digest"}


def test_a_pass_that_differs_from_the_first_fails(trace_gen_pass):
    other = Pass(
        attempted=trace_gen_pass.attempted,
        seeded=json.loads(json.dumps(trace_gen_pass.seeded)),
        fixed=trace_gen_pass.fixed,
    )
    other.seeded["trace_gen/run:lu@3"]["instructions"] += 1
    attempted, failed, reasons = run.check_passes(
        [trace_gen_pass, other], None, None
    )
    assert failed == 1
    assert reasons == {"trace_gen/run:lu@3": "differs from the first pass"}


# -- traced and untraced runs -----------------------------------------


def test_every_pass_reports_every_layer_metric():
    assert set(run.layer_metrics(Pass(), [])) == set(run.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runs_report_exactly_the_spec_metrics(trace):
    proc = _run_bench(
        ROOT, "--workload", "replay", "--seed", "3",
        "--seconds", "0.1", "--trace", trace,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _run_bench(
        tmp_path, "--workload", "replay", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
