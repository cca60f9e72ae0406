"""The benchmark under perfbench/ wraps layer functions where their
callers look them up, calls the package with fixed argument shapes, and
sets ``LocalActor.always_decline`` to force a failed iteration. A
refactor that removes one of these names, or changes a call shape the
benchmark relies on, fails here, naming it, rather than only in a
benchmark run."""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import pytest

from chaincontrib import baseline, dataset, ensemble, evaluation, protocol
from chaincontrib.protocol import LocalActor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_traces_every_layer_it_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    recorder = spans.Recorder()
    try:
        # Raises AttributeError naming the first name the package lacks.
        workloads.install(recorder)
    finally:
        recorder.restore()


def test_benchmark_can_make_an_actor_decline():
    assert "always_decline" in {f.name for f in dataclasses.fields(LocalActor)}, (
        "LocalActor has no always_decline field"
    )


# Each call perfbench/workloads.py makes: the callable, and the positional
# and keyword argument names it passes (values do not matter to a bind).
BENCHMARK_CALLS = [
    (ensemble.EnsembleHyper, 0, ("member_count", "learning_rate", "max_epochs")),
    (dataset.SyntheticSpec, 0, (
        "actor_count", "features_per_actor", "signal_weights", "noise_std",
        "row_count", "seed",
    )),
    (dataset.generate_synthetic, 1, ()),
    (dataset.save_actor_datasets, 2, ()),
    (dataset.MetricSeries.to_csv, 2, ()),
    (dataset.MetricSeries.from_csv, 1, ()),
    (dataset.load_actor_datasets, 1, ()),
    (dataset.make_noise_actor, 0, ("row_count", "feature_count", "part_ids", "seed")),
    (protocol.derive_seed, 2, ()),
    (protocol.MetricTransform, 0, ("scale", "offset")),
    (protocol.InProcessTransport, 1, ()),
    (protocol.LocalActor, 0, ("dataset", "base_seed")),
    (protocol.SocketTransport, 1, ()),
    (protocol.run_campaign, 5, ()),
    (baseline.train_central, 3, ("seed",)),
    (baseline.explain_central, 1, ("seed", "max_instances")),
    (baseline.aggregate_company, 1, ()),
    (evaluation.kendall_tau, 2, ()),
]


@pytest.mark.parametrize(
    ("target", "positional", "keywords"),
    BENCHMARK_CALLS,
    ids=[target.__qualname__ for target, _, _ in BENCHMARK_CALLS],
)
def test_benchmark_call_shapes_bind(target, positional, keywords):
    # Raises TypeError naming the argument the signature no longer takes.
    inspect.signature(target).bind(*range(positional), **dict.fromkeys(keywords))


@pytest.mark.parametrize("owner", [ensemble, baseline], ids=["ensemble", "baseline"])
def test_traced_train_member_names_the_arguments_the_benchmark_reads(owner):
    # The traced run binds each call as the package makes it, fills in the
    # defaults, then reads these arguments by name and sets ``with_log``.
    bound = inspect.signature(owner.train_member).bind(*range(4))
    bound.apply_defaults()
    for name in ("features", "hyper", "with_log"):
        assert name in bound.arguments, f"train_member has no {name!r} argument"
