"""Centralised benchmark: one model on pooled features, game-theoretic
feature attribution aggregated per actor.

This is the privacy-free reference point the decentralised protocol is
measured against. All actors' features are concatenated (shared columns
deduplicated), a single two-headed network is trained with the same
recipe as an ensemble member, and each feature's contribution to each
prediction is attributed with Shapley values estimated by the kernel
weighted-least-squares method, with a brute-force enumeration oracle for
validation at small widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from chaincontrib.dataset import ActorDataset, MetricSeries, load_csv, write_csv
from chaincontrib.ensemble import (
    EnsembleHyper,
    Member,
    Normaliser,
    _chronological_split,
    forward,
    init_member,
    train_member,
)

DEFAULT_SAMPLE_COUNT = 2048
DEFAULT_BACKGROUND_SIZE = 100
# Columns observable by every actor are attributed to this pseudo-actor
# instead of being double-counted.
SHARED_ACTOR_ID = "shared"


@dataclass(frozen=True)
class CentralModel:
    """Single pooled-feature regressor; the mean head is the prediction.

    The target is standardised for training and predictions are mapped
    back, so `predict` speaks raw metric units.
    """

    member: Member
    normaliser: Normaliser
    target_center: float
    target_scale: float
    feature_index: tuple[tuple[str, str], ...]  # per column: (actor_id, column)
    training_features: np.ndarray  # raw feature rows of the training split
    validation_features: np.ndarray
    validation_part_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        width = self.member.w1.shape[0]
        if len(self.feature_index) != width:
            raise ValueError(
                f"feature_index covers {len(self.feature_index)} columns, "
                f"model takes {width}"
            )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"{actor}.{column}" for actor, column in self.feature_index)

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return self.predict_normalised(self.normaliser.transform(features))

    def predict_normalised(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`predict` on rows the normaliser has already transformed."""
        mean, _ = forward(self.member, rows)
        return mean * self.target_scale + self.target_center


def _pooled_columns(
    actors: Sequence[ActorDataset],
) -> list[tuple[int, int, tuple[str, str]]]:
    """(actor position, column position, attribution) of every pooled column.

    A column flagged shared enters once, attributed to the shared
    pseudo-actor; the first actor carrying it supplies the values.
    """
    pooled = []
    seen_shared: set[str] = set()
    for k, actor in enumerate(actors):
        for j, (column, shared) in enumerate(zip(actor.columns, actor.shared_flags)):
            if shared:
                if column in seen_shared:
                    continue
                seen_shared.add(column)
                pooled.append((k, j, (SHARED_ACTOR_ID, column)))
            else:
                pooled.append((k, j, (actor.actor_id, column)))
    return pooled


def pooled_width(actors: Sequence[ActorDataset]) -> int:
    """Number of columns `pool_features` gives these actors, without pooling."""
    return len(_pooled_columns(actors))


def pool_features(
    actors: Sequence[ActorDataset], metric: MetricSeries
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Inner-join all actors with the metric; deduplicate shared columns.

    Row order follows the metric series (chronological). Shared columns
    enter once, as `_pooled_columns` says.
    """
    if not actors:
        raise ValueError("at least one actor dataset required")
    common = set.intersection(*(set(a.part_ids) for a in actors))
    positions = [i for i, pid in enumerate(metric.part_ids) if pid in common]
    if not positions:
        raise ValueError("no part ids shared by every actor and the metric")
    ids = [metric.part_ids[i] for i in positions]

    rows = [actor.rows_for(ids) for actor in actors]
    pooled = _pooled_columns(actors)
    return (
        np.column_stack([rows[k][:, j] for k, j, _ in pooled]),
        metric.values[positions],
        tuple(ids),
        tuple(index for _, _, index in pooled),
    )


def train_central(
    actors: Sequence[ActorDataset],
    metric: MetricSeries,
    hyper: EnsembleHyper,
    seed: int = 0,
) -> CentralModel:
    """Train the pooled model with the same recipe as one ensemble member."""
    features, targets, ids, index = pool_features(actors, metric)
    train_slice, val_slice = _chronological_split(
        features.shape[0], hyper.validation_fraction
    )
    normaliser = Normaliser.fit(features[train_slice])
    center = float(targets[train_slice].mean())
    spread = float(targets[train_slice].std())
    scale = spread if spread > 0.0 else 1.0

    member = init_member(features.shape[1], hyper.hidden_size, seed)
    trained = train_member(
        member,
        normaliser.transform(features),
        (targets - center) / scale,
        hyper,
    )
    return CentralModel(
        member=trained,
        normaliser=normaliser,
        target_center=center,
        target_scale=scale,
        feature_index=index,
        training_features=features[train_slice],
        validation_features=features[val_slice],
        validation_part_ids=tuple(ids[val_slice.start : val_slice.stop]),
    )


def shapley_kernel_weight(d: int, size: int) -> float:
    """Weight of one coalition of the given size in the kernel regression."""
    if not 0 < size < d:
        raise ValueError("kernel weight is defined for proper non-empty coalitions")
    return (d - 1) / (comb(d, size) * size * (d - size))


# Masked rows per model call when many instances are explained: each call
# takes as many whole instances as fit, and at least one.
_BLOCK_ROWS = 4096


def _all_coalitions(d: int) -> np.ndarray:
    """All 2^d coalitions as boolean rows; row k holds the bits of k."""
    return (np.arange(2**d)[:, None] >> np.arange(d)) & 1 == 1


def _draw_coalitions(
    d: int, sample_count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coalition masks and their regression weights, as :func:`kernel_shap`
    describes: every proper coalition, or ``sample_count`` merged draws.

    A draw keeps the features whose keys are at most its s-th smallest
    key, which is the s smallest whenever its keys are distinct. Two of
    its d keys of 53 random bits tie with probability at most
    d (d - 1) / 2 ** 54, about 1.5e-14 per draw at d = 17; a tie at the
    s-th key would keep more than s features.
    """
    if 2**d - 2 <= sample_count:
        masks = _all_coalitions(d)[1:-1]
        size_weight = np.array([shapley_kernel_weight(d, s) for s in range(1, d)])
        return masks, size_weight[masks.sum(axis=1) - 1]
    rng = np.random.default_rng(seed)
    size_mass = np.array([(d - 1) / (s * (d - s)) for s in range(1, d)])
    size_prob = size_mass / size_mass.sum()
    sizes_drawn = rng.choice(np.arange(1, d), size=sample_count, p=size_prob)
    # Each draw keeps the features holding its s smallest random keys.
    keys = rng.random((sample_count, d))
    kth = np.take_along_axis(np.sort(keys, axis=1), sizes_drawn[:, None] - 1, axis=1)
    drawn = keys <= kth
    # Repeated coalitions merge into one row weighted by its count. Packed
    # rows compare bytewise in the order np.unique(drawn, axis=0) sorts.
    packed = np.packbits(drawn, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return drawn[first], counts.astype(float)


def _attribution_solver(
    masks: np.ndarray, weights: np.ndarray
) -> Callable[[np.ndarray, float, np.ndarray], np.ndarray]:
    """Weighted least squares with the additivity constraint enforced exactly.

    The design depends only on the coalitions, so it is factorised once
    here: one SVD of the weighted design gives the solution operator.
    The returned ``solve(values, base, full)`` takes one column of
    coalition values per instance and one prediction per instance, and
    gives one attribution row per instance. The last feature's
    attribution is eliminated through the constraint
    sum(phi) = full - base, which each row therefore satisfies to
    machine precision.
    """
    d = masks.shape[1]
    last = masks[:, -1:].astype(float)
    sqrt_w = np.sqrt(weights)
    design = (masks[:, :-1].astype(float) - last) * sqrt_w[:, None]
    u, sigma, vt = np.linalg.svd(design, full_matrices=False)
    # The rank test of np.linalg.lstsq with its default rcond.
    cutoff = np.finfo(float).eps * max(design.shape) * sigma[0]
    if np.count_nonzero(sigma > cutoff) < d - 1:
        raise ValueError(
            "coalition system is singular; increase sample_count to cover "
            "more coalitions"
        )
    operator = (vt.T / sigma) @ (u.T * sqrt_w)

    def solve(values: np.ndarray, base: float, full: np.ndarray) -> np.ndarray:
        gap = full - base
        phi = np.empty((gap.shape[0], d))
        phi[:, :-1] = (operator @ (values - base - last * gap)).T
        phi[:, -1] = gap - phi[:, :-1].sum(axis=1)
        return phi

    return solve


def require_sample_count(sample_count: int, width: int) -> None:
    """Kernel SHAP over ``width`` features needs at least 2 * width + 2 coalitions."""
    if sample_count < 2 * width + 2:
        raise ValueError(
            f"sample_count {sample_count} too small; need at least {2 * width + 2}"
        )


def _attribute(
    fn: Callable[[np.ndarray], np.ndarray],
    instances: np.ndarray,
    background: np.ndarray,
    sample_count: int,
    seed: int,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Kernel attributions of every row of ``instances`` under ``fn``, a
    function from an (n, d) array of rows to their n predictions.

    Returns the attributions, the base value f(background mean) and the
    predictions f(row) that each row of attributions adds up to. The
    coalitions are drawn and the regression factorised once for all
    rows; the masked rows are then evaluated and solved in blocks of
    about ``_BLOCK_ROWS`` rows, so memory stays flat however many
    instances there are.
    """
    d = instances.shape[1]
    if background.shape[1] != d:
        raise ValueError("background width does not match the instance")
    require_sample_count(sample_count, d)
    background_mean = background.mean(axis=0)
    base = float(fn(background_mean[None, :])[0])
    predictions = fn(instances)
    if d == 1:
        return (predictions - base)[:, None], base, predictions

    masks, weights = _draw_coalitions(d, sample_count, seed)
    solve = _attribution_solver(masks, weights)
    block = max(1, _BLOCK_ROWS // masks.shape[0])
    # Row k of the table is [background mean | instance k]. A coalition's
    # row takes each feature it holds from the instance and every other
    # feature from the background mean, so it is one gather from the table.
    table = np.hstack([np.broadcast_to(background_mean, instances.shape), instances])
    index = masks * d + np.arange(d)
    values = np.empty(instances.shape)
    for start in range(0, instances.shape[0], block):
        stop = start + block
        rows = table[start:stop].take(index, axis=1)
        coalition_values = fn(rows.reshape(-1, d)).reshape(-1, masks.shape[0])
        values[start:stop] = solve(coalition_values.T, base, predictions[start:stop])
    return values, base, predictions


def kernel_shap(
    fn: Callable[[np.ndarray], np.ndarray],
    instance: np.ndarray,
    background: np.ndarray,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> np.ndarray:
    """Per-feature attribution of fn(instance) - fn(background mean), where
    ``fn`` maps an (n, d) array of raw feature rows to n predictions.

    Coalitions are enumerated completely when the budget covers all
    2^d - 2 proper subsets. Otherwise ``sample_count`` sizes are drawn
    with probabilities proportional to the total kernel mass of each
    size, then one uniform key per feature and draw; each draw keeps the
    features with its s smallest keys, a uniformly random coalition of
    that size. Repeated coalitions merge into one row weighted by their
    count. Deterministic for a fixed seed. This is the one-instance case
    of the estimator behind :func:`explain_central`.
    """
    instance = np.asarray(instance, dtype=float).reshape(1, -1)
    background = np.atleast_2d(np.asarray(background, dtype=float))
    values, _, _ = _attribute(fn, instance, background, sample_count, seed)
    return values[0]


def exact_shapley(
    fn: Callable[[np.ndarray], np.ndarray], instance: np.ndarray, background: np.ndarray
) -> np.ndarray:
    """Brute-force attribution of ``fn`` over all 2^d coalitions; the oracle."""
    instance = np.asarray(instance, dtype=float).reshape(-1)
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = instance.shape[0]
    if d > 12:
        raise ValueError(f"exact enumeration infeasible for {d} features (max 12)")
    if background.shape[1] != d:
        raise ValueError("background width does not match the instance")

    masks = _all_coalitions(d)
    # Features outside the coalition are replaced by the background mean.
    values = fn(np.where(masks, instance, background.mean(axis=0)))
    value_of = {int(bits): values[bits] for bits in range(2**d)}

    phi = np.zeros(d)
    for j in range(d):
        for bits in range(2**d):
            if bits & (1 << j):
                continue
            s = bin(bits).count("1")
            weight = factorial(s) * factorial(d - s - 1) / factorial(d)
            phi[j] += weight * (value_of[bits | (1 << j)] - value_of[bits])
    return phi


@dataclass(frozen=True)
class ShapReport:
    """Attributions for a set of explained instances."""

    instance_ids: tuple[str, ...]
    feature_index: tuple[tuple[str, str], ...]
    values: np.ndarray  # (instances, features)
    base_value: float
    predictions: np.ndarray  # model predictions per instance
    background: np.ndarray

    def __post_init__(self) -> None:
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        predictions = np.asarray(self.predictions, dtype=float).reshape(-1)
        if values.shape != (len(self.instance_ids), len(self.feature_index)):
            raise ValueError("values shape must be instances x features")
        if predictions.shape[0] != len(self.instance_ids):
            raise ValueError("one prediction per instance required")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "predictions", predictions)

    feature_names = CentralModel.feature_names  # one "actor.column" per feature

    def additivity_gaps(self) -> np.ndarray:
        return self.values.sum(axis=1) + self.base_value - self.predictions


ADDITIVITY_TOLERANCE = 1e-3


def explain_central(
    model: CentralModel,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    background_size: int = DEFAULT_BACKGROUND_SIZE,
    max_instances: int | None = None,
) -> ShapReport:
    """Attribute the model's validation-split predictions feature by feature.

    Background rows are subsampled from the training split with a fixed
    seed; explained instances are the validation rows (optionally capped
    to the first ``max_instances``). Every instance shares one coalition
    draw, as a per-instance :func:`kernel_shap` call with the same seed
    would give.
    """
    if background_size < 1:
        raise ValueError(f"background_size must be at least 1, got {background_size}")
    if max_instances is not None and max_instances < 1:
        raise ValueError(f"max_instances must be at least 1, got {max_instances}")
    rng = np.random.default_rng(seed)
    train = model.training_features
    take = min(background_size, train.shape[0])
    background = train[rng.choice(train.shape[0], size=take, replace=False)]

    instances = model.validation_features[:max_instances]
    ids = model.validation_part_ids[:max_instances]
    if instances.shape[0] == 0:
        raise ValueError("no validation instances to explain")

    # The model is explained in normalised space. Its normaliser works
    # column by column, so masking normalised rows with the normalised
    # background mean gives, bit for bit, the rows ``predict`` would
    # normalise, and the masked rows skip the transform. The background
    # becomes that one row, which is its own mean.
    transform = model.normaliser.transform
    mean = transform(background.mean(axis=0)[None, :])
    values, base, predictions = _attribute(
        model.predict_normalised, transform(instances), mean, sample_count, seed
    )
    report = ShapReport(
        instance_ids=ids,
        feature_index=model.feature_index,
        values=values,
        base_value=base,
        predictions=predictions,
        background=background,
    )
    gaps = np.abs(report.additivity_gaps())
    # Written so that a NaN gap fails the check too.
    if not gaps.max() <= ADDITIVITY_TOLERANCE:
        raise AssertionError(
            f"local accuracy violated: worst additivity gap {gaps.max():.2e}"
        )
    return report


def aggregate_company(report: ShapReport) -> dict[str, float]:
    """Mean over instances of the summed |attribution| per actor.

    Shared columns contribute to the shared pseudo-actor only.
    """
    actors: dict[str, float] = {}
    absolute = np.abs(report.values)
    for j, (actor_id, _) in enumerate(report.feature_index):
        actors[actor_id] = actors.get(actor_id, 0.0) + float(absolute[:, j].mean())
    return actors


_SUMMARY_COLUMNS = ["actor_id", "mean_abs_attribution"]


def write_shap_csvs(report: ShapReport, out_dir: str | Path) -> tuple[Path, Path]:
    """One row per (instance, feature, attribution), plus the actor summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values_path = out_dir / "shap_values.csv"
    write_csv(
        values_path,
        ["instance_id", "feature", "attribution"],
        (
            (pid, name, value)
            for pid, row in zip(report.instance_ids, report.values.tolist())
            for name, value in zip(report.feature_names, row)
        ),
    )
    summary_path = out_dir / "shap_summary.csv"
    write_csv(summary_path, _SUMMARY_COLUMNS, sorted(aggregate_company(report).items()))
    return values_path, summary_path


def read_shap_summary(path: str | Path) -> dict[str, float]:
    """Read back the actor summary written by :func:`write_shap_csvs`.

    A duplicate actor row raises ParseError; a missing or non-finite
    score raises ValueError.
    """
    table = load_csv(path, "actor_id")
    if table.columns != tuple(_SUMMARY_COLUMNS[1:]):
        raise ValueError(
            f"{path} is not an attribution summary (columns {list(table.columns)})"
        )
    if not table.n_rows:
        raise ValueError(f"{path} contains no actors")
    scores = table.values[:, 0]
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"{path}: every actor needs a finite score")
    return dict(zip(table.ids, scores.tolist()))
