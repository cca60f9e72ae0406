"""The benchmark under perfbench/ wraps layer functions where their
callers look them up, and sets ``LocalActor.always_decline`` to force a
failed iteration. A refactor that removes one of these names fails here,
naming it, rather than only in a benchmark run."""

from __future__ import annotations

import dataclasses
from pathlib import Path

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
