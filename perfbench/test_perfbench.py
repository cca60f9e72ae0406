"""Tests of the benchmark itself, at test size (a few hundred rows, a few epochs).

    python3 -m pytest perfbench -q

They drive all three workloads through the same code the benchmark runs
at full size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Recorder, Span, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
SEED = 7

# Per-layer metrics that must be non-zero on the workloads that exercise them.
EXERCISED = {
    "campaign-2k": (
        "dataset.align_s", "ensemble.train_ensemble_s.p50", "ensemble.member_steps",
        "ensemble.step_us", "protocol.encode_s", "protocol.decode_s",
        "protocol.call_frame_bytes", "protocol.handle_call_s",
        "protocol.noise_baseline_s", "protocol.rank_s",
    ),
    # The coordinator's noise baseline runs the actor pipeline in process.
    "sockets-2k": (
        "dataset.align_s", "ensemble.train_ensemble_s.p50", "ensemble.member_steps",
        "ensemble.step_us", "protocol.spawn_s", "protocol.actor_cpu_s",
        "protocol.encode_s", "protocol.decode_s", "protocol.request_s",
        "protocol.call_frame_bytes", "protocol.handle_call_s",
        "protocol.noise_baseline_s", "protocol.rank_s",
    ),
    "central-1k": (
        "ensemble.train_member_s", "ensemble.member_epochs",
        "baseline.pool_features_s", "baseline.train_central_s",
        "baseline.explain_central_s", "baseline.kernel_shap_ms.p50",
        "baseline.kernel_shap_ms.p90", "baseline.instances",
    ),
}
EXACT_COUNTS = (
    "ensemble.member_epochs", "ensemble.member_steps",
    "protocol.call_frame_bytes", "baseline.instances",
)


def _measure(name, traced, tmp_path_factory):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    workdir = tmp_path_factory.mktemp(name)
    return workloads.measure(workload, SEED, 0.0, traced, workdir)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {
        (name, traced): _measure(name, traced, tmp_path_factory)
        for name in NAMES
        for traced in (False, True)
    }


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("traced", (False, True))
def test_every_metric_is_emitted_with_its_unit(runs, name, traced):
    run = runs[name, traced]
    result = workloads.report(run)
    listed = SPEC["per_layer" if traced else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_never_zero(runs, name):
    values = workloads.end_to_end(runs[name, False])
    assert all(v > 0 for v in values.values()), values
    assert values["success_rate"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_measures_the_layers_the_workload_exercises(runs, name):
    values = workloads.per_layer(runs[name, True])
    missing = [m for m in EXERCISED[name] if not values[m] > 0]
    assert not missing
    assert values["protocol.declines"] == values["protocol.timeouts"] == 0


def test_exact_counts_repeat_between_runs(runs, tmp_path_factory):
    for name in NAMES:
        again = workloads.per_layer(_measure(name, True, tmp_path_factory))
        first = workloads.per_layer(runs[name, True])
        assert [again[m] for m in EXACT_COUNTS] == [first[m] for m in EXACT_COUNTS]


def test_traced_iterations_repeat_the_untraced_scalars(runs):
    for name in NAMES:
        run = runs[name, True]
        scalars = [r.outcome.scalars for r in run.rounds]
        assert len(scalars) >= 3 and all(s == scalars[0] for s in scalars)


def test_warm_up_is_checked_but_not_timed(runs):
    for name in NAMES:
        run = runs[name, False]
        assert run.rounds[0].warmup and not any(r.warmup for r in run.rounds[1:])
        assert run.iterations(traced=False) == run.rounds[1:]
        assert run.attempted == len(run.rounds)


def test_every_workload_runs_the_same_epochs_for_every_seed():
    for workload in workloads.WORKLOADS.values():
        hyper = workload.hyper()
        assert hyper.max_epochs < hyper.patience_epochs


def test_end_to_end_times_follow_the_program_not_the_host():
    def rounds(work_s, slowdowns):
        return [
            workloads.Round(
                trace_id=None, setup_s=work_s * k, result_s=work_s * k,
                cpu_s=work_s * k, host_s=workloads.HOST_UNIT_REF_S * k,
            )
            for k in slowdowns
        ]

    def result_s(rounds_):
        return workloads.end_to_end(workloads.Run(rounds=rounds_, recorder=None))["result_s"]

    steady = result_s(rounds(0.5, [1.0, 1.0, 1.0]))
    assert steady == pytest.approx(0.5)
    assert result_s(rounds(0.5, [1.5, 1.4, 1.6])) == pytest.approx(steady)
    assert result_s(rounds(0.6, [1.5, 1.4, 1.6])) == pytest.approx(1.2 * steady)


def test_host_unit_takes_about_its_reference_time_and_keeps_affinity():
    allowed = os.sched_getaffinity(0)
    unit = workloads.host_unit(sorted(allowed))
    assert 0.2 * workloads.HOST_UNIT_REF_S < unit < 5 * workloads.HOST_UNIT_REF_S
    assert os.sched_getaffinity(0) == allowed


def test_socket_transport_matches_in_process(tmp_path):
    sockets = workloads.tiny(workloads.WORKLOADS["sockets-2k"])
    results = {}
    for workload in (sockets, replace(sockets, route="in-process")):
        prepared = workloads.prepare(workload, SEED, tmp_path, lambda _: nullcontext({}))
        try:
            ranking, log = workloads.run_result(workload, prepared, SEED)
        finally:
            workloads.teardown(prepared)
        assert not log["declines"] and not log["timeouts"]
        results[workload.route] = [
            (e.actor_id, e.total_uncertainty) for e in ranking.entries
        ]
    assert results["sockets"] == results["in-process"]


def test_failed_check_counts_against_success(tmp_path, monkeypatch):
    workload = workloads.tiny(workloads.WORKLOADS["campaign-2k"])
    original = workloads.prepare

    def prepare(*args):
        prepared = original(*args)
        prepared.transport.actors[0].always_decline = True
        return prepared

    monkeypatch.setattr(workloads, "prepare", prepare)
    run = workloads.measure(workload, SEED, 0.0, False, tmp_path)
    result = workloads.report(run)
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["metrics"]["success_rate"]["value"] == 0.0


def test_failed_setup_counts_as_a_failed_iteration(tmp_path, monkeypatch):
    workload = workloads.tiny(workloads.WORKLOADS["campaign-2k"])
    original = workloads.prepare
    calls = []

    def prepare(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        return original(*args)

    monkeypatch.setattr(workloads, "prepare", prepare)
    run = workloads.measure(workload, SEED, 0.0, False, tmp_path)
    result = workloads.report(run)
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] == 0.5


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-2k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, "p", 0.0, 10.0, None, 0)
    children = [
        Span(2, "a", 1.0, 4.0, 1, 0),
        Span(3, "b", 3.0, 5.0, 1, 0),  # overlaps a, as worker threads do
        Span(4, "c", 8.0, 9.0, 1, 0),
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_patched_calls_nest_and_restore():
    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module = types.SimpleNamespace(inner=inner, outer=outer)
    recorder = Recorder()
    recorder.patch(module, "inner", "inner")
    recorder.patch(module, "outer", "outer")
    try:
        assert module.outer(1) == 4
    finally:
        recorder.restore()
    assert module.inner is inner and module.outer is outer
    spans = {s.name: s for s in recorder.spans}
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["outer"].parent is None


def test_patching_a_missing_function_fails():
    recorder = Recorder()
    with pytest.raises(AttributeError):
        recorder.patch(types.SimpleNamespace(), "train_member", "ensemble.train_member")
