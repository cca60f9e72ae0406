"""Central pooled model and Shapley attribution tests.

The brute-force enumeration (exact_shapley) is itself checked against
closed forms for linear and additive models, then serves as the oracle
for the kernel estimator.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincontrib import baseline
from chaincontrib.baseline import (
    SHARED_ACTOR_ID,
    CentralModel,
    ShapReport,
    _attribute,
    _attribution_solver,
    _draw_coalitions,
    aggregate_company,
    exact_shapley,
    explain_central,
    kernel_shap,
    pool_features,
    pooled_width,
    read_shap_summary,
    shapley_kernel_weight,
    train_central,
    write_shap_csvs,
)
from chaincontrib.dataset import (
    ActorDataset,
    MetricSeries,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    make_noise_actor,
)
from chaincontrib.ensemble import EnsembleHyper

CENTRAL_HYPER = EnsembleHyper(
    member_count=2,  # ignored by the central path, kept valid
    hidden_size=16,
    batch_size=32,
    patience_epochs=20,
    max_epochs=200,
    learning_rate=1e-2,
)


def random_network(d: int, seed: int):
    """Small random tanh net used as a black-box model in oracle tests."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(d, 16))
    b1 = rng.normal(size=16)
    w2 = rng.normal(size=16)

    def fn(rows: np.ndarray) -> np.ndarray:
        return np.tanh(np.atleast_2d(rows) @ w1 + b1) @ w2

    return fn


def linear_model(weights: np.ndarray, bias: float = 0.0):
    weights = np.asarray(weights, dtype=float)
    return lambda rows: np.atleast_2d(rows) @ weights + bias


def tiny_actor(actor_id: str, part_ids, columns, features, shared=None) -> ActorDataset:
    features = np.asarray(features, dtype=float)
    shared = tuple(shared) if shared is not None else (False,) * len(columns)
    return ActorDataset(
        actor_id=actor_id,
        part_ids=tuple(part_ids),
        columns=tuple(columns),
        features=features,
        shared_flags=shared,
    )


# ---------------------------------------------------------------- kernel math


def test_kernel_weight_desk_values() -> None:
    # d=3: every proper size gets (d-1)/(C(d,s)*s*(d-s)).
    assert shapley_kernel_weight(3, 1) == pytest.approx(1 / 3)
    assert shapley_kernel_weight(3, 2) == pytest.approx(1 / 3)
    assert shapley_kernel_weight(4, 2) == pytest.approx(3 / 24)


def test_kernel_weight_rejects_trivial_coalitions() -> None:
    with pytest.raises(ValueError):
        shapley_kernel_weight(3, 0)
    with pytest.raises(ValueError):
        shapley_kernel_weight(3, 3)


# ------------------------------------------------------------- exact oracle


def test_exact_linear_closed_form() -> None:
    # For f = w.x with mean imputation, phi_j = w_j * (x_j - m_j).
    weights = np.array([3.0, -1.0, 0.5])
    fn = linear_model(weights, bias=2.0)
    instance = np.array([1.0, 2.0, -1.0])
    background = np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 1.0]])
    expected = weights * (instance - background.mean(axis=0))
    np.testing.assert_allclose(
        exact_shapley(fn, instance, background), expected, atol=1e-12
    )


def test_exact_additive_model_separates_features() -> None:
    # f = g(x0) + h(x1): each feature gets its own term relative to the
    # background-mean evaluation point.
    def fn(rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(rows)
        return rows[:, 0] ** 2 + np.sin(rows[:, 1])

    instance = np.array([2.0, 1.0])
    background = np.array([[1.0, 0.0], [3.0, 2.0], [2.0, -2.0]])
    m = background.mean(axis=0)
    phi = exact_shapley(fn, instance, background)
    assert phi[0] == pytest.approx(instance[0] ** 2 - m[0] ** 2, abs=1e-12)
    assert phi[1] == pytest.approx(np.sin(instance[1]) - np.sin(m[1]), abs=1e-12)


def test_exact_symmetry_axiom() -> None:
    # Interchangeable features receive equal credit.
    def fn(rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(rows)
        return rows[:, 0] * rows[:, 1]

    phi = exact_shapley(fn, np.array([2.0, 2.0]), np.zeros((1, 2)))
    assert phi[0] == pytest.approx(phi[1])


def test_exact_dummy_axiom() -> None:
    fn = linear_model(np.array([5.0, 0.0, -2.0]))
    phi = exact_shapley(fn, np.array([1.0, 9.0, 1.0]), np.zeros((3, 3)))
    assert abs(phi[1]) < 1e-6


def test_exact_single_feature_is_the_whole_gap() -> None:
    def fn(rows: np.ndarray) -> np.ndarray:
        return np.atleast_2d(rows)[:, 0] ** 3

    phi = exact_shapley(fn, np.array([2.0]), np.array([[1.0], [0.0]]))
    # f(2) - f(mean([1, 0])) = 8 - 0.125
    assert phi[0] == pytest.approx(8.0 - 0.125)


def test_exact_additivity_sums_to_prediction_gap() -> None:
    fn = random_network(5, seed=3)
    instance = np.linspace(-1.0, 1.0, 5)
    background = np.random.default_rng(7).normal(size=(20, 5))
    phi = exact_shapley(fn, instance, background)
    gap = fn(instance[None, :])[0] - fn(background.mean(axis=0)[None, :])[0]
    assert phi.sum() == pytest.approx(gap, abs=1e-10)


def test_exact_rejects_wide_inputs() -> None:
    with pytest.raises(ValueError, match="12"):
        exact_shapley(linear_model(np.ones(13)), np.ones(13), np.zeros((2, 13)))


# ----------------------------------------------------------- kernel estimator


def test_kernel_linear_desk_check() -> None:
    # f = 3*x0: all credit on the first feature, none on the second.
    fn = linear_model(np.array([3.0, 0.0]))
    phi = kernel_shap(fn, np.array([1.0, 1.0]), np.zeros((4, 2)), sample_count=16, seed=0)
    assert phi[0] == pytest.approx(3.0, abs=1e-6)
    assert phi[1] == pytest.approx(0.0, abs=1e-6)


def test_kernel_constant_model_gives_zeros() -> None:
    fn = lambda rows: np.full(np.atleast_2d(rows).shape[0], 7.5)
    phi = kernel_shap(fn, np.ones(4), np.zeros((3, 4)), sample_count=64, seed=1)
    np.testing.assert_allclose(phi, np.zeros(4), atol=1e-9)


def test_kernel_matches_exact_at_width_six() -> None:
    fn = random_network(6, seed=11)
    rng = np.random.default_rng(12)
    instance = rng.normal(size=6)
    background = rng.normal(size=(50, 6))
    phi = kernel_shap(fn, instance, background, sample_count=2048, seed=0)
    oracle = exact_shapley(fn, instance, background)
    assert np.max(np.abs(phi - oracle)) < 1e-2


def test_kernel_dummy_axiom_with_sampling() -> None:
    # Width 10 forces the sampling path at this budget.
    weights = np.array([2.0, -1.0, 0.0, 1.5, 0.5, -2.0, 1.0, 0.0, 3.0, -0.5])
    fn = linear_model(weights)
    rng = np.random.default_rng(5)
    instance = rng.normal(size=10)
    background = rng.normal(size=(30, 10))
    phi = kernel_shap(fn, instance, background, sample_count=512, seed=4)
    assert abs(phi[2]) < 1e-2
    assert abs(phi[7]) < 1e-2


def test_kernel_additivity_exact_by_construction() -> None:
    fn = random_network(9, seed=2)
    rng = np.random.default_rng(3)
    instance = rng.normal(size=9)
    background = rng.normal(size=(25, 9))
    phi = kernel_shap(fn, instance, background, sample_count=128, seed=9)
    gap = fn(instance[None, :])[0] - fn(background.mean(axis=0)[None, :])[0]
    assert phi.sum() == pytest.approx(gap, abs=1e-10)


def test_kernel_deterministic_per_seed() -> None:
    fn = random_network(8, seed=21)
    rng = np.random.default_rng(22)
    instance = rng.normal(size=8)
    background = rng.normal(size=(40, 8))
    a = kernel_shap(fn, instance, background, sample_count=64, seed=5)
    b = kernel_shap(fn, instance, background, sample_count=64, seed=5)
    c = kernel_shap(fn, instance, background, sample_count=64, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def size_probabilities(d: int) -> np.ndarray:
    """Share of the total kernel mass held by each coalition size 1..d-1."""
    mass = np.array([(d - 1) / (s * (d - s)) for s in range(1, d)])
    return mass / mass.sum()


def reference_draws(d: int, budget: int, seed: int) -> np.ndarray:
    """The sampler's draws built one at a time: all sizes first, then for
    each draw d random keys, of which the s smallest pick the coalition."""
    draws = np.random.default_rng(seed)
    sizes = draws.choice(np.arange(1, d), size=budget, p=size_probabilities(d))
    drawn = np.zeros((budget, d), dtype=bool)
    for row, s in zip(drawn, sizes):
        row[np.argsort(draws.random(d))[: int(s)]] = True
    return drawn


@pytest.mark.parametrize("d", [4, 7, 17])
def test_kernel_sampled_coalitions_merge_like_reference(d: int) -> None:
    # Reference: the same draws merged one by one in a dict, in sorted order.
    fn = random_network(d, seed=d)
    rng = np.random.default_rng(d + 1)
    instance = rng.normal(size=d)
    background = rng.normal(size=(20, d))
    budget = min(64, 2**d - 3)  # short of full enumeration, so sampled
    counts: dict[tuple[bool, ...], int] = {}
    for mask in reference_draws(d, budget, seed=5):
        key = tuple(mask.tolist())
        counts[key] = counts.get(key, 0) + 1
    masks = np.array(sorted(counts), dtype=bool)
    weights = np.array([counts[tuple(m.tolist())] for m in masks], dtype=float)
    mean = background.mean(axis=0)
    expected = _attribution_solver(masks, weights)(
        fn(np.where(masks, instance, mean))[:, None],
        float(fn(mean[None, :])[0]),
        fn(instance[None, :]),
    )[0]
    got = kernel_shap(fn, instance, background, sample_count=budget, seed=5)
    np.testing.assert_array_equal(got, expected)


# Widths around the byte edges of the packed rows, each at the seed d and
# at a few more seeds.
DRAW_WIDTHS = (2, 3, 8, 9, 17, 63, 64, 65)


@pytest.mark.parametrize(
    ("d", "seed"),
    [pytest.param(d, d, id=str(d)) for d in DRAW_WIDTHS]
    + [pytest.param(d, seed, id=f"{d}-seed{seed}") for d in DRAW_WIDTHS for seed in (101, 202, 303)],
)
def test_sampled_coalitions_merge_like_unique_rows(d: int, seed: int) -> None:
    budget = min(3000, 2**d - 3)
    masks, weights = _draw_coalitions(d, budget, seed=seed)
    rows, counts = np.unique(reference_draws(d, budget, seed=seed), axis=0, return_counts=True)
    np.testing.assert_array_equal(masks, rows)
    np.testing.assert_array_equal(weights, counts.astype(float))


def test_sampled_coalitions_follow_the_kernel_distribution() -> None:
    d, budget = 17, 100_000
    masks, weights = _draw_coalitions(d, budget, seed=3)
    assert weights.sum() == budget
    sizes = masks.sum(axis=1)
    assert sizes.min() >= 1 and sizes.max() <= d - 1
    # Draws per size against the kernel mass, within 5 standard errors.
    per_size = np.bincount(sizes, weights=weights, minlength=d)[1:]
    prob = size_probabilities(d)
    np.testing.assert_array_less(
        np.abs(per_size - budget * prob), 5 * np.sqrt(budget * prob * (1 - prob))
    )
    # Within one size every feature is kept at the rate s / d.
    for s, n in zip(range(1, d), per_size):
        kept = weights[sizes == s] @ masks[sizes == s]
        rate = s / d
        np.testing.assert_array_less(
            np.abs(kept - n * rate), 5 * np.sqrt(n * rate * (1 - rate))
        )


@pytest.mark.parametrize("d", range(2, 13))
def test_enumerated_weights_equal_per_row_kernel_weights(d: int) -> None:
    masks, weights = _draw_coalitions(d, 2**d, seed=0)
    per_row = np.array([shapley_kernel_weight(d, int(s)) for s in masks.sum(axis=1)])
    assert np.array_equal(weights, per_row)


def test_kernel_single_feature_short_circuit() -> None:
    def fn(rows: np.ndarray) -> np.ndarray:
        return np.atleast_2d(rows)[:, 0] ** 2

    phi = kernel_shap(fn, np.array([3.0]), np.array([[1.0]]), sample_count=4, seed=0)
    assert phi[0] == pytest.approx(9.0 - 1.0)


def test_kernel_rejects_small_budget() -> None:
    fn = linear_model(np.ones(5))
    with pytest.raises(ValueError, match="sample_count"):
        kernel_shap(fn, np.ones(5), np.zeros((2, 5)), sample_count=11, seed=0)


def test_kernel_rejects_width_mismatch() -> None:
    fn = linear_model(np.ones(3))
    with pytest.raises(ValueError, match="width"):
        kernel_shap(fn, np.ones(3), np.zeros((2, 4)), sample_count=32, seed=0)


def test_singular_system_names_sample_count() -> None:
    # Coalitions covering only one feature cannot identify the others.
    masks = np.array([[True, False, False]] * 4)
    with pytest.raises(ValueError, match="sample_count"):
        _attribution_solver(masks, np.ones(4))


def test_solver_rank_test_is_the_lstsq_rank_test() -> None:
    # Minimal budgets, half with two features tied: a tie leaves a
    # singular value at rounding level, not zero, so the cutoff decides.
    singular = 0
    for seed in range(200):
        d = 3 + seed % 5
        masks, weights = _draw_coalitions(d, 2 * d + 2, seed=seed)
        if seed % 2:
            masks[:, 1] = masks[:, 0]
        design = masks[:, :-1].astype(float) - masks[:, -1:].astype(float)
        rank = np.linalg.lstsq(
            design * np.sqrt(weights)[:, None], np.ones(len(masks)), rcond=None
        )[2]
        try:
            _attribution_solver(masks, weights)
        except ValueError:
            singular += 1
            assert rank < d - 1
        else:
            assert rank == d - 1
    assert 0 < singular < 200


def lstsq_attributions(fn, instances, background, sample_count, seed) -> np.ndarray:
    """One weighted np.linalg.lstsq per instance over the same coalitions,
    with the last attribution eliminated through additivity."""
    d = instances.shape[1]
    masks, weights = _draw_coalitions(d, sample_count, seed)
    mean = background.mean(axis=0)
    base = float(fn(mean[None, :])[0])
    design = masks[:, :-1].astype(float) - masks[:, -1:].astype(float)
    sqrt_w = np.sqrt(weights)
    phi = np.empty(instances.shape)
    for row, instance in zip(phi, instances):
        gap = float(fn(instance[None, :])[0]) - base
        response = fn(np.where(masks, instance, mean)) - base - masks[:, -1] * gap
        row[:-1] = np.linalg.lstsq(
            design * sqrt_w[:, None], response * sqrt_w, rcond=None
        )[0]
        row[-1] = gap - row[:-1].sum()
    return phi


@pytest.mark.parametrize(
    ("d", "sample_count", "count"),
    [
        (17, 2048, 7),  # sampled: about 1 270 coalitions, blocks of 3
        (11, 2048, 5),  # all 2 046 coalitions, blocks of 2
        (6, 64, 70),  # all 62 coalitions, blocks of 66
    ],
)
def test_factored_solve_matches_per_instance_lstsq(d, sample_count, count) -> None:
    fn = random_network(d, seed=30 + d)
    rng = np.random.default_rng(40 + d)
    instances = rng.normal(size=(count, d))
    background = rng.normal(size=(25, d))
    values, _, _ = _attribute(fn, instances, background, sample_count, seed=3)
    expected = lstsq_attributions(fn, instances, background, sample_count, seed=3)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    ("d", "sample_count", "count"),
    [
        (6, 64, 70),  # all 62 coalitions, blocks of 66, then 4
        (11, 2048, 5),  # all 2 046 coalitions, blocks of 2, then 1
        (17, 2048, 7),  # sampled: about 1 270 coalitions, blocks of 3, then 1
        (65, 200, 30),  # sampled: about 200 coalitions, blocks of 20, then 10
    ],
)
def test_coalition_rows_are_the_masked_instances(d, sample_count, count) -> None:
    rng = np.random.default_rng(50 + d)
    instances = rng.normal(size=(count, d))
    background = rng.normal(size=(9, d))
    calls = []

    def recording(rows: np.ndarray) -> np.ndarray:
        calls.append(rows.copy())
        return np.tanh(rows).sum(axis=1)

    _attribute(recording, instances, background, sample_count, seed=3)
    masks, _ = _draw_coalitions(d, sample_count, seed=3)
    assert max(len(rows) for rows in calls) <= max(baseline._BLOCK_ROWS, len(masks))
    # The base value and the predictions come first, then one call per block.
    blocks = [rows.reshape(-1, len(masks), d) for rows in calls[2:]]
    assert len(blocks) > 1 and len(blocks[-1]) < len(blocks[0])
    mean = background.mean(axis=0)
    for instance, rows in zip(instances, np.concatenate(blocks), strict=True):
        np.testing.assert_array_equal(rows, np.where(masks, instance, mean))


def median_errors(d: int, budgets: list[int], networks: int) -> np.ndarray:
    """Median over random networks of the max-abs error against the oracle,
    one per budget."""
    errors = np.empty((len(budgets), networks))
    for seed in range(networks):
        fn = random_network(d, seed=100 + seed)
        rng = np.random.default_rng(200 + seed)
        instance = rng.normal(size=d)
        background = rng.normal(size=(30, d))
        oracle = exact_shapley(fn, instance, background)
        for k, budget in enumerate(budgets):
            phi = kernel_shap(fn, instance, background, sample_count=budget, seed=seed)
            errors[k, seed] = np.max(np.abs(phi - oracle))
    return np.median(errors, axis=1)


def test_kernel_error_shrinks_as_budget_quadruples() -> None:
    """Median error against the oracle drops at each 4x budget step."""
    # 512 >= 2^8 - 2, so the last budget enumerates every coalition.
    medians = median_errors(8, [32, 128, 512], networks=20)
    assert medians[0] > medians[1] > medians[2]


def test_sampled_kernel_error_shrinks_as_budget_quadruples() -> None:
    # At width 12 all three budgets fall short of the 4094 proper coalitions.
    medians = median_errors(12, [64, 256, 1024], networks=30)
    assert medians[0] > medians[1] > medians[2]


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=6
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kernel_recovers_linear_attributions(weights: list[float], seed: int) -> None:
    # Full enumeration at these widths: must match the linear closed form.
    w = np.array(weights)
    d = w.shape[0]
    rng = np.random.default_rng(seed)
    instance = rng.normal(size=d)
    background = rng.normal(size=(10, d))
    budget = max(2**d, 2 * d + 2)
    phi = kernel_shap(linear_model(w), instance, background, sample_count=budget, seed=0)
    np.testing.assert_allclose(
        phi, w * (instance - background.mean(axis=0)), atol=1e-8
    )


# ----------------------------------------------------------- pooled features


def make_joined_actors() -> tuple[list[ActorDataset], MetricSeries]:
    ids = ("p1", "p2", "p3", "p4")
    a = tiny_actor(
        "alpha",
        ids,
        ("x0", "x1", "hum"),
        [[1.0, 2.0, 9.0], [3.0, 4.0, 8.0], [5.0, 6.0, 7.0], [7.0, 8.0, 6.0]],
        shared=(False, False, True),
    )
    b = tiny_actor(
        "beta",
        ids,
        ("x0", "hum"),
        [[10.0, 9.0], [20.0, 8.0], [30.0, 7.0], [40.0, 6.0]],
        shared=(False, True),
    )
    metric = MetricSeries(part_ids=ids, values=np.array([1.0, 2.0, 3.0, 4.0]))
    return [a, b], metric


def test_pool_deduplicates_shared_columns() -> None:
    actors, metric = make_joined_actors()
    features, targets, ids, index = pool_features(actors, metric)
    # 2 + 1 private plus the shared column once.
    assert features.shape == (4, 4)
    assert pooled_width(actors) == 4
    assert index == (
        ("alpha", "x0"),
        ("alpha", "x1"),
        (SHARED_ACTOR_ID, "hum"),
        ("beta", "x0"),
    )
    np.testing.assert_array_equal(features[:, 2], [9.0, 8.0, 7.0, 6.0])
    np.testing.assert_array_equal(targets, [1.0, 2.0, 3.0, 4.0])
    assert ids == ("p1", "p2", "p3", "p4")


def test_pool_follows_metric_order_on_partial_overlap() -> None:
    actors, _ = make_joined_actors()
    metric = MetricSeries(part_ids=("p3", "p1"), values=np.array([30.0, 10.0]))
    features, targets, ids, _ = pool_features(actors, metric)
    assert ids == ("p3", "p1")
    np.testing.assert_array_equal(features[:, 0], [5.0, 1.0])
    np.testing.assert_array_equal(targets, [30.0, 10.0])


def test_pool_rejects_empty_join() -> None:
    actors, _ = make_joined_actors()
    metric = MetricSeries(part_ids=("zz",), values=np.array([1.0]))
    with pytest.raises(ValueError, match="part ids"):
        pool_features(actors, metric)


def test_pool_private_name_collisions_stay_separate() -> None:
    actors, metric = make_joined_actors()
    _, _, _, index = pool_features(actors, metric)
    owners = [actor for actor, column in index if column == "x0"]
    assert owners == ["alpha", "beta"]


# ------------------------------------------------------------- central model


def synthetic_case(seed: int = 0, rows: int = 500):
    spec = SyntheticSpec(
        actor_count=2,
        features_per_actor=3,
        signal_weights=(3.0, 0.3),
        noise_std=0.5,
        row_count=rows,
        seed=seed,
    )
    datasets, series, _ = generate_synthetic(spec)
    return datasets, series


def test_train_central_constant_target() -> None:
    datasets, series = synthetic_case(rows=220)
    flat = MetricSeries(part_ids=series.part_ids, values=np.full(len(series.part_ids), 42.0))
    model = train_central(datasets, flat, CENTRAL_HYPER, seed=0)
    preds = model.predict(model.validation_features)
    assert np.all(np.abs(preds - 42.0) < 0.05)


def test_train_central_deterministic() -> None:
    datasets, series = synthetic_case(rows=260)
    a = train_central(datasets, series, CENTRAL_HYPER, seed=3)
    b = train_central(datasets, series, CENTRAL_HYPER, seed=3)
    np.testing.assert_array_equal(a.member.parameter_vector(), b.member.parameter_vector())
    np.testing.assert_array_equal(
        a.predict(a.validation_features), b.predict(b.validation_features)
    )


def test_train_central_learns_signal() -> None:
    datasets, series = synthetic_case(seed=5, rows=600)
    model = train_central(datasets, series, CENTRAL_HYPER, seed=1)
    preds = model.predict(model.validation_features)
    targets = np.array(
        [series.as_mapping()[pid] for pid in model.validation_part_ids]
    )
    corr = np.corrcoef(preds, targets)[0, 1]
    assert corr > 0.7


def test_central_predictions_in_metric_units() -> None:
    # Shift the metric far from zero; predictions must follow.
    datasets, series = synthetic_case(rows=300)
    shifted = MetricSeries(part_ids=series.part_ids, values=series.values + 1000.0)
    model = train_central(datasets, shifted, CENTRAL_HYPER, seed=2)
    preds = model.predict(model.validation_features)
    assert np.all(np.abs(preds - 1000.0) < 50.0)


def test_central_validation_is_chronological_tail() -> None:
    datasets, series = synthetic_case(rows=250)
    model = train_central(datasets, series, CENTRAL_HYPER, seed=0)
    n_val = len(model.validation_part_ids)
    assert model.validation_part_ids == series.part_ids[-n_val:]


# ------------------------------------------------------------ report objects


def small_report() -> ShapReport:
    values = np.array([[1.0, -1.0, 2.0], [3.0, 1.0, -2.0]])
    return ShapReport(
        instance_ids=("p1", "p2"),
        feature_index=(("A", "x0"), ("A", "x1"), ("B", "x0")),
        values=values,
        base_value=0.0,
        predictions=values.sum(axis=1),
        background=np.zeros((2, 3)),
    )


def test_aggregate_company_desk_check() -> None:
    # A: mean(|1|+|-1|, |3|+|1|) = 3, B: mean(|2|, |-2|) = 2.
    scores = aggregate_company(small_report())
    assert scores == {"A": pytest.approx(3.0), "B": pytest.approx(2.0)}


def test_aggregate_company_shared_pseudo_actor() -> None:
    report = ShapReport(
        instance_ids=("p1",),
        feature_index=(("A", "x0"), (SHARED_ACTOR_ID, "hum")),
        values=np.array([[2.0, -3.0]]),
        base_value=0.0,
        predictions=np.array([-1.0]),
        background=np.zeros((1, 2)),
    )
    assert report.feature_names == ("A.x0", "shared.hum")
    scores = aggregate_company(report)
    assert scores == {"A": pytest.approx(2.0), SHARED_ACTOR_ID: pytest.approx(3.0)}


def test_report_validates_shapes() -> None:
    with pytest.raises(ValueError):
        ShapReport(
            instance_ids=("p1",),
            feature_index=(("A", "f0"), ("A", "f1")),
            values=np.zeros((2, 2)),
            base_value=0.0,
            predictions=np.zeros(2),
            background=np.zeros((1, 2)),
        )


# ------------------------------------------------------------ explain + csv


def trained_model() -> CentralModel:
    datasets, series = synthetic_case(seed=9, rows=300)
    return train_central(datasets, series, CENTRAL_HYPER, seed=4)


def test_explain_central_local_accuracy_and_shape() -> None:
    model = trained_model()
    report = explain_central(model, sample_count=128, seed=0, background_size=40)
    assert report.values.shape == (
        len(model.validation_part_ids),
        len(model.feature_names),
    )
    assert report.instance_ids == model.validation_part_ids
    assert np.max(np.abs(report.additivity_gaps())) <= 1e-3


def test_explain_central_deterministic() -> None:
    model = trained_model()
    a = explain_central(model, sample_count=64, seed=1, background_size=30, max_instances=8)
    b = explain_central(model, sample_count=64, seed=1, background_size=30, max_instances=8)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.base_value == b.base_value


def test_explain_central_ranks_heavy_actor_first() -> None:
    # Signal weights 3.0 vs 0.3: pooled attribution must order the actors.
    datasets, series = synthetic_case(seed=13, rows=700)
    model = train_central(datasets, series, CENTRAL_HYPER, seed=2)
    report = explain_central(model, sample_count=128, seed=0, background_size=50)
    scores = aggregate_company(report)
    assert scores["actor-1"] > scores["actor-2"]


def pooled_model(actor_count: int) -> CentralModel:
    """A briefly trained model on three columns per actor plus five noise
    columns; four actors give the 17 columns of the benchmark's central run."""
    spec = SyntheticSpec(
        actor_count=actor_count,
        features_per_actor=3,
        signal_weights=(3.0, 2.0, 1.0, 0.5)[:actor_count],
        noise_std=0.5,
        row_count=600,
        seed=1,
    )
    datasets, series, _ = generate_synthetic(spec)
    datasets.append(make_noise_actor(len(series), 5, series.part_ids, seed=2))
    hyper = dataclasses.replace(CENTRAL_HYPER, max_epochs=5)
    return train_central(datasets, series, hyper, seed=3)


def one_at_a_time(model: CentralModel, report: ShapReport, sample_count: int, seed: int):
    rows = model.validation_features[: len(report.instance_ids)]
    return np.array(
        [
            kernel_shap(
                model.predict, row, report.background, sample_count=sample_count, seed=seed
            )
            for row in rows
        ]
    )


@pytest.mark.parametrize(
    ("actor_count", "max_instances"),
    [
        (4, 23),  # 17 columns: coalitions sampled
        (2, None),  # 11 columns: all 2046 coalitions enumerated
    ],
)
def test_explain_central_equals_per_instance_kernel_shap(actor_count, max_instances) -> None:
    model = pooled_model(actor_count)
    report = explain_central(
        model, sample_count=2048, seed=7, background_size=50, max_instances=max_instances
    )
    np.testing.assert_allclose(
        report.values, one_at_a_time(model, report, 2048, 7), rtol=0, atol=1e-9
    )
    rows = model.validation_features[: len(report.instance_ids)]
    np.testing.assert_array_equal(report.predictions, model.predict(rows))
    mean = report.background.mean(axis=0)
    assert report.base_value == float(model.predict(mean[None, :])[0])


def test_explain_central_rows_do_not_depend_on_the_instance_count() -> None:
    # Counts from one instance upwards end a batch at every possible place.
    model = pooled_model(4)
    reports = [
        explain_central(
            model, sample_count=2048, seed=7, background_size=50, max_instances=count
        )
        for count in range(1, 9)
    ]
    alone = one_at_a_time(model, reports[-1], 2048, 7)
    for count, report in enumerate(reports, start=1):
        np.testing.assert_allclose(report.values, alone[:count], rtol=0, atol=1e-9)


def test_explain_central_factorises_the_design_once(monkeypatch) -> None:
    model = pooled_model(4)  # 17 columns: 23 instances take 8 blocks of 3
    factorised = []

    def counting_solver(masks, weights):
        factorised.append(masks.shape[0])
        return _attribution_solver(masks, weights)

    monkeypatch.setattr(baseline, "_attribution_solver", counting_solver)
    report = explain_central(
        model, sample_count=2048, seed=7, background_size=50, max_instances=23
    )
    assert len(report.instance_ids) == 23
    assert 23 > baseline._BLOCK_ROWS // factorised[0]
    assert len(factorised) == 1


def test_explain_central_enumerated_matches_exact_shapley() -> None:
    model = trained_model()  # 6 pooled columns: 62 coalitions, all enumerated
    report = explain_central(model, sample_count=64, seed=0, background_size=30)
    for row, phi in zip(model.validation_features, report.values):
        oracle = exact_shapley(model.predict, row, report.background)
        np.testing.assert_allclose(phi, oracle, rtol=0, atol=1e-9)


def test_explain_central_singular_system_raises() -> None:
    # At the minimal budget of 14 draws over 6 columns, some seeds draw too
    # few distinct coalitions to identify every attribution.
    model = trained_model()
    for seed in range(1000):
        try:
            explain_central(model, sample_count=14, seed=seed, max_instances=3)
        except ValueError as error:
            assert "singular" in str(error)
            return
    pytest.fail("no seed in 0..999 gave a singular coalition system")


@pytest.mark.parametrize("max_instances", [-3, 0])
def test_explain_central_rejects_a_cap_below_one(max_instances) -> None:
    with pytest.raises(ValueError, match="max_instances"):
        explain_central(trained_model(), sample_count=64, max_instances=max_instances)


def test_explain_central_rejects_an_empty_background() -> None:
    with pytest.raises(ValueError, match="background_size"):
        explain_central(trained_model(), sample_count=64, background_size=0)


def test_explain_central_checks_the_budget_before_any_model_call(monkeypatch) -> None:
    model = trained_model()
    calls = []
    monkeypatch.setattr(CentralModel, "predict", lambda self, rows: calls.append(rows))
    monkeypatch.setattr(
        CentralModel, "predict_normalised", lambda self, rows: calls.append(rows)
    )
    with pytest.raises(ValueError, match="sample_count"):
        explain_central(model, sample_count=13)  # 6 columns need 14
    assert calls == []


def test_explain_central_gate_catches_nan_attributions() -> None:
    # A NaN background column makes the base value and attributions NaN.
    model = trained_model()
    train = model.training_features.copy()
    train[:, 0] = np.nan
    broken = dataclasses.replace(model, training_features=train)
    with pytest.raises(AssertionError, match="local accuracy"):
        explain_central(broken, sample_count=64, background_size=30, max_instances=3)


def test_write_shap_csvs_deterministic_and_parseable(tmp_path) -> None:
    model = trained_model()
    report = explain_central(model, sample_count=64, seed=2, background_size=25, max_instances=5)
    values_path, summary_path = write_shap_csvs(report, tmp_path / "a")
    write_shap_csvs(report, tmp_path / "b")
    assert values_path.read_bytes() == (tmp_path / "b" / "shap_values.csv").read_bytes()
    assert summary_path.read_bytes() == (tmp_path / "b" / "shap_summary.csv").read_bytes()

    lines = values_path.read_text().strip().splitlines()
    assert lines[0] == "instance_id,feature,attribution"
    assert len(lines) == 1 + 5 * len(report.feature_names)

    summary_lines = summary_path.read_text().strip().splitlines()
    parsed = dict(line.split(",") for line in summary_lines[1:])
    scores = aggregate_company(report)
    for actor_id, value in parsed.items():
        assert float(value) == pytest.approx(scores[actor_id])


def test_shap_summary_round_trip(tmp_path) -> None:
    report = small_report()
    _, summary_path = write_shap_csvs(report, tmp_path)
    assert read_shap_summary(summary_path) == aggregate_company(report)


@pytest.mark.parametrize(
    ("body", "error", "match"),
    [
        pytest.param(
            "a,1.0\na,2.0\nb,0.5\n", ParseError, "actor_id 'a' appears more than once",
            id="a,1.0\na,2.0\nb,0.5\n-ParseError-duplicate",
        ),
        ("a,1.0\nb,\n", ValueError, "finite"),
        ("a,1.0\nb,nan\n", ValueError, "finite"),
        ("a,inf\nb,0.5\n", ValueError, "finite"),
        ("", ValueError, "no actors"),
    ],
)
def test_shap_summary_reader_rejects_bad_rows(tmp_path, body, error, match) -> None:
    path = tmp_path / "shap_summary.csv"
    path.write_text("actor_id,mean_abs_attribution\n" + body)
    with pytest.raises(error, match=match):
        read_shap_summary(path)


def test_shap_summary_reader_checks_the_columns(tmp_path) -> None:
    path = tmp_path / "shap_summary.csv"
    path.write_text("actor_id,score\na,1.0\n")
    with pytest.raises(ValueError, match="not an attribution summary"):
        read_shap_summary(path)
