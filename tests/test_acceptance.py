"""Acceptance gate: one check per numbered criterion, one verdict line each.

The fleet-backed checks (5-7) train a hundred small ensembles and twenty
central models between them; expect several minutes of wall time. Run
``pytest tests/test_acceptance.py -v -s`` to watch the verdict lines land.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import ExitStack

import numpy as np
import pytest

from conftest import (
    DOWNSTREAM_ACTOR,
    FLEET_HYPER,
    FLEET_ROWS,
    Fleet,
    serving,
)
from chaincontrib.baseline import exact_shapley, kernel_shap
from chaincontrib.cli import main
from chaincontrib.dataset import (
    NOISE_ACTOR_ID,
    MetricSeries,
    SyntheticSpec,
    aggregate_quality,
    generate_synthetic,
)
from chaincontrib.ensemble import (
    Ensemble,
    EnsembleHyper,
    Member,
    Normaliser,
    init_member,
    loss_and_gradients,
    total_uncertainty,
)
from chaincontrib.evaluation import build_comparison, kendall_tau
from chaincontrib.protocol import (
    CallForUncertainty,
    Decline,
    InProcessTransport,
    LocalActor,
    MetricTransform,
    SocketTransport,
    UncertaintyResponse,
    decode_message,
    encode_message,
    run_campaign,
)


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ------------------------------------------------------------- criterion 1


def _kink_free_batch(
    member: Member, rng: np.random.Generator, n_in: int
) -> tuple[np.ndarray, np.ndarray]:
    # Finite differences are only trustworthy away from the relu kinks and
    # the log-variance clamp boundary; resample until the batch is clear.
    for _ in range(200):
        batch = rng.normal(size=(int(rng.integers(3, 9)), n_in))
        targets = rng.normal(size=batch.shape[0])
        pre = batch @ member.w1 + member.b1
        raw = np.maximum(pre, 0.0) @ member.w2 + member.b2
        if np.min(np.abs(pre)) > 1e-3 and np.all(
            np.abs(np.abs(raw[:, 1]) - 10.0) > 1e-3
        ):
            return batch, targets
    raise AssertionError("no kink-free batch found in 200 attempts")


def _finite_difference_gradient(
    member: Member, batch: np.ndarray, targets: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    names = ("w1", "b1", "w2", "b2")
    entries = []
    for name in names:
        for j in range(getattr(member, name).size):

            def loss_at(delta: float) -> float:
                arrays = {n: getattr(member, n).copy() for n in names}
                arrays[name].ravel()[j] += delta
                probe = Member(rng_seed=member.rng_seed, **arrays)
                value, _ = loss_and_gradients(probe, batch, targets)
                return value

            entries.append((loss_at(step) - loss_at(-step)) / (2.0 * step))
    return np.asarray(entries)


def test_criterion_1_analytic_gradients_match_finite_differences() -> None:
    start = time.perf_counter()
    names = ("w1", "b1", "w2", "b2")
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    for _ in range(50):
        n_in = int(rng.integers(2, 7))
        n_hidden = int(rng.integers(4, 13))
        member = init_member(n_in, n_hidden, seed=int(rng.integers(0, 2**31)))
        batch, targets = _kink_free_batch(member, rng, n_in)
        _, grads = loss_and_gradients(member, batch, targets)
        analytic = np.concatenate([grads[name].ravel() for name in names])
        numeric = _finite_difference_gradient(member, batch, targets)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / denom))
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        checked == 50 and worst < 1e-4 and elapsed < 10.0,
        f"{checked}/50 layouts, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------- criterion 2


def _pinned_member(mu: float, sigma: float, seed: int) -> Member:
    # Zero weights pin both heads at b2, whatever the input row.
    return Member(
        w1=np.zeros((1, 1)),
        b1=np.zeros(1),
        w2=np.zeros((1, 2)),
        b2=np.array([mu, math.log(sigma**2)]),
        rng_seed=seed,
    )


def test_criterion_2_total_variance_matches_sampled_mixture() -> None:
    start = time.perf_counter()
    worst_z = 0.0
    for i in range(100):
        member_count = (2, 5, 10)[i % 3]
        rng = np.random.default_rng(7000 + i)
        means = rng.normal(0.0, 2.0, size=member_count)
        sigmas = np.exp(rng.uniform(-1.0, 1.0, size=member_count))
        ensemble = Ensemble(
            members=tuple(
                _pinned_member(mu, sigma, seed=m)
                for m, (mu, sigma) in enumerate(zip(means, sigmas))
            ),
            normaliser=Normaliser(
                mean=np.zeros(1), scale=np.ones(1), zero_variance=np.zeros(1, dtype=bool)
            ),
            training_log=((),) * member_count,
            validation_rows=np.zeros((1, 1)),
        )
        total = total_uncertainty(ensemble)

        # Oracle: sample the equal-weight Gaussian mixture those members
        # define and compare against its sample variance, allowing three
        # plug-in standard errors of that estimate.
        picks = rng.integers(0, member_count, size=1_000_000)
        draws = rng.normal(means[picks], sigmas[picks])
        sample_variance = float(np.var(draws))
        centred = draws - draws.mean()
        fourth_moment = float(np.mean(centred**4))
        se = math.sqrt((fourth_moment - sample_variance**2) / draws.size)
        worst_z = max(worst_z, abs(sample_variance - total) / se)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst_z <= 3.0 and elapsed < 60.0,
        f"100 member sets, worst deviation {worst_z:.2f} standard errors, "
        f"{elapsed:.1f}s",
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_quality_score_desk_checks() -> None:
    first = aggregate_quality(np.array([[1.2, 3.4], [1.2, 3.4]]), np.array([1.2, 3.4]))
    second = aggregate_quality(np.array([[1.1, 0.9]]), np.array([1.0, 1.0]))
    third = aggregate_quality(np.array([[2.0], [0.0]]), np.array([1.0]))
    # 1.1 - 1.0 rounds in binary; "exact" for the middle case means exact
    # up to that representation error.
    ok = first == 0.0 and abs(second - 0.1) <= 1e-15 and third == 2.0
    _verdict(3, ok, f"desk values {first!r}, {second!r}, {third!r} vs (0, 0.1, 2.0)")


# ------------------------------------------------------------- criterion 4


def test_criterion_4_kernel_attribution_matches_exact_enumeration() -> None:
    start = time.perf_counter()
    worst_err = 0.0
    worst_gap = 0.0
    for i in range(20):
        width = 4 + (i % 5)
        rng = np.random.default_rng(9000 + i)
        w1 = rng.normal(size=(width, 16))
        b1 = rng.normal(size=16)
        w2 = rng.normal(size=16)

        def network(rows: np.ndarray) -> np.ndarray:
            return np.tanh(np.atleast_2d(rows) @ w1 + b1) @ w2

        instance = rng.normal(size=width)
        background = rng.normal(size=(30, width))
        oracle = exact_shapley(network, instance, background)
        kernel = kernel_shap(network, instance, background, sample_count=4096, seed=i)
        worst_err = max(worst_err, float(np.max(np.abs(kernel - oracle))))
        base = float(network(background.mean(axis=0))[0])
        full = float(network(instance)[0])
        worst_gap = max(worst_gap, abs(float(kernel.sum()) + base - full))
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        worst_err < 1e-2 and worst_gap <= 1e-3 and elapsed < 300.0,
        f"20 models, worst attribution error {worst_err:.2e}, worst additivity "
        f"gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------- criterion 5


def test_criterion_5_noise_actor_tops_uncertainty(fleet_plain: Fleet) -> None:
    # Desk-scale contract for the whole fleet.
    assert FLEET_ROWS <= 5000
    assert FLEET_HYPER.member_count == 5
    assert FLEET_HYPER.max_epochs <= 500
    top = sum(
        1
        for run in fleet_plain.runs
        if run.ranking.actor_order()[-1] == NOISE_ACTOR_ID
    )
    ok = top >= 9 and fleet_plain.elapsed_seconds < 900.0
    _verdict(
        5,
        ok,
        f"noise baseline has the highest uncertainty in {top}/10 seeds, "
        f"fleet trained in {fleet_plain.elapsed_seconds:.0f}s",
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_routes_agree_on_actor_ranking(
    fleet_plain: Fleet, central_scores_plain: dict[int, dict[str, float]]
) -> None:
    taus = []
    for run in fleet_plain.runs:
        contribution = {
            entry.actor_id: -entry.total_uncertainty
            for entry in run.ranking.entries
            if entry.actor_id != NOISE_ACTOR_ID
        }
        scores = central_scores_plain[run.seed]
        taus.append(kendall_tau(contribution, {a: scores[a] for a in contribution}))
    med = statistics.median(taus)
    _verdict(
        6,
        med >= 0.6,
        f"median Kendall tau {med:.3f} "
        f"(per seed: {', '.join(f'{t:.2f}' for t in taus)})",
    )


# ------------------------------------------------------------- criterion 7


def test_criterion_7_injected_correlation_lifts_downstream_rank(
    fleet_plain: Fleet, fleet_correlated: Fleet
) -> None:
    improved = 0
    moves = []
    for plain, correlated in zip(fleet_plain.runs, fleet_correlated.runs):
        before = plain.ranking.actor_order().index(DOWNSTREAM_ACTOR) + 1
        after = correlated.ranking.actor_order().index(DOWNSTREAM_ACTOR) + 1
        improved += after < before
        moves.append(f"{before}->{after}")
    _verdict(
        7,
        improved >= 6,
        f"downstream actor rank improved in {improved}/10 seeds "
        f"({', '.join(moves)})",
    )


# ------------------------------------------------------------- criterion 8


def test_criterion_8_round_trip_and_transport_parity() -> None:
    start = time.perf_counter()
    call = CallForUncertainty(
        call_id="call-000042",
        metric=MetricSeries(
            part_ids=("p1", "p2", "p3"),
            values=np.array([1.0 / 3.0, 2.5e-17, -1.7]),
        ),
        hyper=EnsembleHyper(),
        response_deadline=30.0,
    )
    response = UncertaintyResponse(
        actor_id="alpha", call_id="call-000042", total_uncertainty=0.1234567890123
    )
    decline = Decline(actor_id="beta", call_id="call-000042")
    round_trips = all(
        decode_message(encode_message(message)) == message
        for message in (call, response, decline)
    )

    spec = SyntheticSpec(
        actor_count=3,
        features_per_actor=2,
        signal_weights=(2.0, 1.0, 0.5),
        noise_std=0.5,
        row_count=240,
        cross_correlation=0.0,
        seed=77,
    )
    datasets, metric, _ = generate_synthetic(spec)
    transform = MetricTransform.unit_spread(metric)
    hyper = EnsembleHyper(
        member_count=2,
        hidden_size=12,
        batch_size=32,
        patience_epochs=10,
        max_epochs=60,
        learning_rate=1e-2,
    )
    decliner = datasets[-1].actor_id

    with ExitStack() as stack:
        servers = [
            stack.enter_context(
                serving(
                    LocalActor(dataset=ds, base_seed=5, always_decline=ds.actor_id == decliner)
                )
            )
            for ds in datasets
        ]
        transport = SocketTransport([server.address for server in servers])
        socket_ranking, campaign_log = run_campaign(
            transport, metric, transform, hyper, 5
        )
        transcript = list(transport.transcript)

    scalar_frames: dict[str, int] = {}
    decline_frames: dict[str, int] = {}
    calls_leak_scalars = False
    for entry in transcript:
        message = decode_message(entry.data)
        if isinstance(message, UncertaintyResponse):
            scalar_frames[message.actor_id] = scalar_frames.get(message.actor_id, 0) + 1
        elif isinstance(message, Decline):
            decline_frames[message.actor_id] = (
                decline_frames.get(message.actor_id, 0) + 1
            )
        elif isinstance(message, CallForUncertainty):
            calls_leak_scalars |= "total_uncertainty" in json.loads(entry.data)
    participants = [
        entry.actor_id
        for entry in socket_ranking.entries
        if entry.actor_id != NOISE_ACTOR_ID
    ]
    one_scalar_each = scalar_frames == {actor: 1 for actor in participants}

    local_actors = [
        LocalActor(dataset=ds, base_seed=5, always_decline=ds.actor_id == decliner)
        for ds in datasets
    ]
    local_ranking, _ = run_campaign(
        InProcessTransport(local_actors), metric, transform, hyper, 5
    )

    ok = (
        round_trips
        and one_scalar_each
        and not calls_leak_scalars
        and decline_frames == {decliner: 1}
        and decliner in campaign_log["declines"]
        and local_ranking == socket_ranking
    )
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        ok,
        f"3 message kinds round-trip, {sum(scalar_frames.values())} scalar "
        f"frames for {len(participants)} responders, transports agree "
        f"({elapsed:.1f}s)",
    )


# ------------------------------------------------------------- criterion 9


def test_criterion_9_rerun_produces_identical_ranking_csv(tmp_path) -> None:
    config = {
        "seed": 11,
        "out": str(tmp_path / "run"),
        "transport": "in-process",
        "synth": {
            "actor_count": 3,
            "features_per_actor": 2,
            "signal_weights": [2.0, 1.0, 0.5],
            "noise_std": 0.5,
            "row_count": 400,
        },
        "hyper": {
            "member_count": 2,
            "hidden_size": 12,
            "batch_size": 32,
            "patience_epochs": 10,
            "max_epochs": 60,
            "learning_rate": 0.01,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["synth", "--config", str(config_path)]) == 0

    ranking_path = tmp_path / "run" / "decentralised" / "ranking.csv"
    assert main(["run-decentralised", "--config", str(config_path)]) == 0
    first = ranking_path.read_bytes()
    assert main(["run-decentralised", "--config", str(config_path)]) == 0
    second = ranking_path.read_bytes()
    _verdict(
        9,
        len(first) > 0 and first == second,
        f"ranking CSV identical across reruns ({len(first)} bytes)",
    )


# -------------------------------------------- fleet-level report invariants


def test_noise_sits_at_alignment_floor(
    fleet_plain: Fleet, central_scores_with_noise: dict[int, dict[str, float]]
) -> None:
    """After alignment the noise baseline anchors the decentralised series."""
    for run in fleet_plain.runs:
        report = build_comparison(run.ranking, central_scores_with_noise[run.seed])
        aligned = {r.actor_id: r.aligned_uncertainty for r in report.rows}
        assert aligned[NOISE_ACTOR_ID] == min(aligned.values())


@pytest.mark.xfail(
    strict=True,
    reason=(
        "on this synthetic family the decentralised noise-to-weakest-actor "
        "gap shrinks with the squared weight share while the attribution gap "
        "shrinks linearly, so the ratio clears 1.0 in only 2 of 10 seeds; "
        "the claim stays under test rather than being quietly dropped"
    ),
)
def test_noise_gap_exceeds_attribution_gap_in_majority(
    fleet_plain: Fleet, central_scores_with_noise: dict[int, dict[str, float]]
) -> None:
    contrasts = [
        build_comparison(run.ranking, central_scores_with_noise[run.seed]).noise_contrast
        for run in fleet_plain.runs
    ]
    majority = sum(1 for value in contrasts if value >= 1.0)
    assert majority >= 6, f"noise contrast >= 1 in {majority}/10 seeds: {contrasts}"
