"""Session fixtures for the acceptance suite, and a helper that serves an
actor on a thread for the socket tests.

Training ten four-actor campaigns dominates the cost of the whole test
run, so each fleet (and its centralised counterpart) is built once per
session and shared by every criterion that consumes it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import pytest

from chaincontrib.baseline import aggregate_company, explain_central, train_central
from chaincontrib.dataset import (
    ActorDataset,
    MetricSeries,
    SyntheticSpec,
    generate_synthetic,
)
from chaincontrib.ensemble import EnsembleHyper
from chaincontrib.protocol import (
    ActorServer,
    ContributionRanking,
    InProcessTransport,
    LocalActor,
    MetricTransform,
    noise_actor,
    run_campaign,
)

@contextmanager
def serving(actor: LocalActor) -> Iterator[ActorServer]:
    """An ActorServer for ``actor``, serving on a thread inside the block.

    It runs ``serve_forever`` as the ``actor`` command does; leaving the
    block calls ``shutdown()``, then ``server_close()``.
    """
    with ActorServer(actor) as server:
        # A short poll keeps shutdown() quick.
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            thread.join(timeout=5.0)


# Benchmark fixture: four actors with well separated signal weights plus
# the coordinator's noise baseline. Sized so the weakest actor (under 2%
# of the signal variance) still clears the noise floor reliably; smaller
# fleets leave that gap inside training jitter.
FLEET_SEEDS = tuple(range(10))
FLEET_WEIGHTS = (3.0, 2.0, 1.0, 0.5)
FLEET_ROWS = 4000
FLEET_FEATURES_PER_ACTOR = 3
FLEET_NOISE_STD = 0.5
FLEET_HYPER = EnsembleHyper(
    member_count=5,
    hidden_size=32,
    batch_size=128,
    patience_epochs=50,
    max_epochs=500,
    learning_rate=5e-3,
)
# The last actor in the chain; correlation injections point at it.
DOWNSTREAM_ACTOR = "actor-4"


@dataclass(frozen=True)
class FleetRun:
    """One campaign over one synthetic world."""

    seed: int
    datasets: tuple[ActorDataset, ...]
    metric: MetricSeries
    ranking: ContributionRanking


@dataclass(frozen=True)
class Fleet:
    runs: tuple[FleetRun, ...]
    elapsed_seconds: float


def _run_fleet(seed: int, cross_correlation: float) -> FleetRun:
    spec = SyntheticSpec(
        actor_count=len(FLEET_WEIGHTS),
        features_per_actor=FLEET_FEATURES_PER_ACTOR,
        signal_weights=FLEET_WEIGHTS,
        noise_std=FLEET_NOISE_STD,
        row_count=FLEET_ROWS,
        cross_correlation=cross_correlation,
        seed=1000 + seed,
    )
    datasets, metric, _ = generate_synthetic(spec)
    # Standardise the shared metric; raw targets far from unit scale let
    # the variance head saturate before the mean head has learned.
    transform = MetricTransform.unit_spread(metric)
    actors = [LocalActor(dataset=ds, base_seed=seed) for ds in datasets]
    ranking, _ = run_campaign(
        InProcessTransport(actors), metric, transform, FLEET_HYPER, seed
    )
    return FleetRun(
        seed=seed, datasets=tuple(datasets), metric=metric, ranking=ranking
    )


def _build_fleet(cross_correlation: float) -> Fleet:
    start = time.perf_counter()
    runs = tuple(_run_fleet(seed, cross_correlation) for seed in FLEET_SEEDS)
    return Fleet(runs=runs, elapsed_seconds=time.perf_counter() - start)


@pytest.fixture(scope="session")
def fleet_plain() -> Fleet:
    return _build_fleet(0.0)


@pytest.fixture(scope="session")
def fleet_correlated() -> Fleet:
    return _build_fleet(0.8)


@pytest.fixture(scope="session")
def central_scores_plain(fleet_plain: Fleet) -> dict[int, dict[str, float]]:
    """Centralised attribution totals per seed, real actors only.

    Twelve pooled features keep the explainer on its full-enumeration
    path, so these scores carry no sampling noise.
    """
    scores: dict[int, dict[str, float]] = {}
    for run in fleet_plain.runs:
        model = train_central(
            list(run.datasets), run.metric, FLEET_HYPER, seed=run.seed
        )
        report = explain_central(
            model,
            sample_count=4096,
            seed=run.seed,
            background_size=100,
            max_instances=120,
        )
        scores[run.seed] = aggregate_company(report)
    return scores


@pytest.fixture(scope="session")
def central_scores_with_noise(fleet_plain: Fleet) -> dict[int, dict[str, float]]:
    """Centralised totals with the noise block pooled in as a fifth actor.

    Pools the decentralised campaign's own noise actor, so the two
    rankings cover identical actor sets.
    """
    scores: dict[int, dict[str, float]] = {}
    for run in fleet_plain.runs:
        noisy = list(run.datasets) + [noise_actor(run.metric, run.seed)]
        model = train_central(noisy, run.metric, FLEET_HYPER, seed=run.seed)
        report = explain_central(
            model,
            sample_count=2048,
            seed=run.seed,
            background_size=100,
            max_instances=120,
        )
        scores[run.seed] = aggregate_company(report)
    return scores
