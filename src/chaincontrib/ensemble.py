"""Deep-ensemble uncertainty estimation on a scalar quality metric.

Each ensemble member is a network with one rectified-linear hidden layer
and two output heads, a predicted mean and a predicted log-variance,
trained on the Gaussian negative log-likelihood so that the variance head
learns the noise level of the data. Ensemble spread over the mean head
measures what the model does not know; the averaged variance head
measures what the data itself hides. Their sum is the scalar each actor
reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from chaincontrib.dataset import ActorDataset, MetricSeries, require_int


class TrainingError(RuntimeError):
    """Training aborted, typically on a non-finite loss."""


# Every integer hyperparameter and the least value it may take.
_INTEGER_MINIMUMS = {
    "member_count": 2,
    "hidden_size": 1,
    "batch_size": 1,
    "patience_epochs": 1,
    "max_epochs": 1,
}


@dataclass(frozen=True)
class EnsembleHyper:
    """Training configuration shared by every member of an ensemble."""

    member_count: int = 5
    hidden_size: int = 50
    dropout_rate: float = 0.5
    batch_size: int = 128
    patience_epochs: int = 100
    max_epochs: int = 2000
    learning_rate: float = 1e-3
    validation_fraction: float = 0.2
    log_variance_clamp: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self) -> None:
        lo, hi = (float(v) for v in self.log_variance_clamp)
        object.__setattr__(self, "log_variance_clamp", (lo, hi))
        for name, least in _INTEGER_MINIMUMS.items():
            require_int(name, getattr(self, name), least)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if not lo < hi:
            raise ValueError("log_variance_clamp must satisfy lo < hi")

    def to_dict(self) -> dict:
        return asdict(self) | {"log_variance_clamp": list(self.log_variance_clamp)}

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleHyper":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown hyperparameter fields: {sorted(unknown)}")
        return cls(**data)


def _rng(seed: int, stream: int) -> np.random.Generator:
    # Separate deterministic streams for initialisation and training.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class Member:
    """Parameters of one two-headed network: input -> hidden -> (mean, log-variance)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    rng_seed: int

    def __post_init__(self) -> None:
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("weight matrices must be 2-d")
        if self.w2.shape[1] != 2 or self.b2.shape != (2,):
            raise ValueError("a member emits exactly two outputs per row")
        if self.b1.shape != (self.w1.shape[1],) or self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("inconsistent layer shapes")

    def parameter_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )


def init_member(input_size: int, hidden_size: int, seed: int) -> Member:
    """Randomly initialise one member; the seed fully determines the draw.

    Weights are zero-centred Gaussians scaled by fan-in (suited to the
    rectified-linear hidden layer); biases get a small random offset so
    that two members never start identical.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("layer sizes must be positive")
    rng = _rng(seed, 0)
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_size), (input_size, hidden_size))
    b1 = rng.normal(0.0, 0.1, hidden_size)
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_size), (hidden_size, 2))
    b2 = rng.normal(0.0, 0.1, 2)
    return Member(w1=w1, b1=b1, w2=w2, b2=b2, rng_seed=seed)


def _check_arity(batch: np.ndarray, input_size: int) -> None:
    if batch.ndim != 2 or batch.shape[1] != input_size:
        raise ValueError(
            f"input of shape {batch.shape} does not match input arity {input_size}"
        )


def _parameter_views(flat: np.ndarray, input_size: int, hidden_size: int) -> tuple:
    """(w1, b1, w2, b2) as views into one vector in parameter_vector() order."""
    w1_end = input_size * hidden_size
    b1_end = w1_end + hidden_size
    w2_end = b1_end + 2 * hidden_size
    return (
        flat[:w1_end].reshape(input_size, hidden_size),
        flat[w1_end:b1_end],
        flat[b1_end:w2_end].reshape(hidden_size, 2),
        flat[w2_end:],
    )


def _forward_into(params, batch, hidden, out, active=None, dropout_mask=None) -> None:
    """The network's only forward pass, written into preallocated arrays.

    ``params`` is (w1, b1, w2, b2). ``hidden`` receives the rectified
    hidden layer (times the dropout mask, if any) and ``out`` the two
    heads; ``active`` marks where the rectifier passes gradient.
    """
    w1, b1, w2, b2 = params
    np.matmul(batch, w1, out=hidden)
    np.add(hidden, b1, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    if active is not None:
        np.greater(hidden, 0.0, out=active)
    if dropout_mask is not None:
        np.multiply(hidden, dropout_mask, out=hidden)
    np.matmul(hidden, w2, out=out)
    np.add(out, b2, out=out)


def forward(
    member: Member,
    x: np.ndarray,
    clamp: tuple[float, float] = (-10.0, 10.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pass over a (rows, inputs) batch; returns (mean,
    clamped log-variance) per row."""
    batch = np.asarray(x, dtype=float)
    _check_arity(batch, member.w1.shape[0])
    hidden = np.empty((batch.shape[0], member.w1.shape[1]))
    out = np.empty((batch.shape[0], 2))
    _forward_into((member.w1, member.b1, member.w2, member.b2), batch, hidden, out)
    return out[:, 0], np.clip(out[:, 1], clamp[0], clamp[1])


def nll_loss(mean, log_var, target):
    """Gaussian negative log-likelihood, additive constant dropped.

    log(variance)/2 + squared error scaled by the precision; elementwise
    over arrays.
    """
    mean = np.asarray(mean, dtype=float)
    log_var = np.asarray(log_var, dtype=float)
    target = np.asarray(target, dtype=float)
    value = 0.5 * log_var + 0.5 * (target - mean) ** 2 * np.exp(-log_var)
    if value.ndim == 0:
        return float(value)
    return value


class _Scratch:
    """Work arrays of the gradient kernel for batches of one row count.

    The first axis of every array is the batch row.
    """

    def __init__(self, rows: int, hidden_size: int):
        self.hidden, self.d_hidden, self.dropout = np.empty((3, rows, hidden_size))
        self.active, self.kept = np.empty((2, rows, hidden_size), dtype=bool)
        self.out, self.d_out = np.empty((2, rows, 2))
        self.mean, self.raw = self.out[:, 0], self.out[:, 1]
        self.d_mean, self.d_log_var = self.d_out[:, 0], self.d_out[:, 1]
        self.log_var, self.negated, self.inv_var, self.residual, self.fit, self.terms = (
            np.empty((6, rows))
        )
        self.inside, self.below = np.empty((2, rows), dtype=bool)


def _loss_into(params, grads, batch, y, clamp, dropout_mask, s: _Scratch) -> float:
    """Mean NLL over a batch; writes its analytic gradients into ``grads``.

    The only gradient code: ``loss_and_gradients`` and ``train_member``
    both call it. ``params`` and ``grads`` are (w1, b1, w2, b2); ``s``
    holds work arrays for exactly ``len(batch)`` rows. Inputs are not
    checked here.
    """
    n = batch.shape[0]
    lo, hi = clamp
    _forward_into(params, batch, s.hidden, s.out, s.active, dropout_mask)
    log_var = np.minimum(np.maximum(s.raw, lo, out=s.log_var), hi, out=s.log_var)
    inv_var = np.exp(np.negative(log_var, out=s.negated), out=s.inv_var)
    residual = np.subtract(s.mean, y, out=s.residual)
    # fit = 0.5 * residual**2 * inv_var, the precision-weighted error term.
    fit = np.multiply(np.square(residual, out=s.fit), 0.5, out=s.fit)
    np.multiply(fit, inv_var, out=fit)
    terms = np.add(np.multiply(log_var, 0.5, out=s.terms), fit, out=s.terms)
    loss = float(np.add.reduce(terms) / n)

    np.divide(np.multiply(residual, inv_var, out=s.d_mean), n, out=s.d_mean)
    np.divide(np.subtract(0.5, fit, out=s.d_log_var), n, out=s.d_log_var)
    # No gradient flows through a clamped log-variance.
    inside = np.greater(s.raw, lo, out=s.inside)
    np.logical_and(inside, np.less(s.raw, hi, out=s.below), out=inside)
    np.copyto(s.d_log_var, 0.0, where=np.logical_not(inside, out=inside))

    w2 = params[2]
    grad_w1, grad_b1, grad_w2, grad_b2 = grads
    np.matmul(s.hidden.T, s.d_out, out=grad_w2)
    np.add.reduce(s.d_out, axis=0, out=grad_b2)
    d_pre = np.matmul(s.d_out, w2.T, out=s.d_hidden)
    if dropout_mask is not None:
        np.multiply(d_pre, dropout_mask, out=d_pre)
    np.multiply(d_pre, s.active, out=d_pre)
    np.matmul(batch.T, d_pre, out=grad_w1)
    np.add.reduce(d_pre, axis=0, out=grad_b1)
    return loss


def loss_and_gradients(
    member: Member,
    features: np.ndarray,
    targets: np.ndarray,
    clamp: tuple[float, float] = (-10.0, 10.0),
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean NLL over a batch and its analytic parameter gradients.

    A dropout mask (already scaled by the keep probability) may be passed
    explicitly so the same mask can be reused when checking gradients.
    """
    batch = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    n = batch.shape[0]
    if y.shape[0] != n:
        raise ValueError("features and targets disagree on row count")
    input_size, hidden_size = member.w1.shape
    _check_arity(batch, input_size)
    params = (member.w1, member.b1, member.w2, member.b2)
    grads = _parameter_views(
        np.empty(sum(p.size for p in params)), input_size, hidden_size
    )
    loss = _loss_into(
        params, grads, batch, y, clamp, dropout_mask, _Scratch(n, hidden_size)
    )
    return loss, dict(zip(("w1", "b1", "w2", "b2"), grads))


def _chronological_split(row_count: int, validation_fraction: float) -> tuple[slice, slice]:
    # Validation = most recent tail, keeping the observations time-ordered.
    n_val = max(1, int(row_count * validation_fraction))
    n_train = row_count - n_val
    return slice(0, n_train), slice(n_train, row_count)


def _eval_nll(params, features: np.ndarray, targets: np.ndarray, clamp) -> float:
    hidden = np.empty((features.shape[0], params[1].shape[0]))
    out = np.empty((features.shape[0], 2))
    _forward_into(params, features, hidden, out)
    log_var = np.clip(out[:, 1], clamp[0], clamp[1])
    return float(np.mean(nll_loss(out[:, 0], log_var, targets)))


def train_member(
    member: Member,
    features: np.ndarray,
    targets: np.ndarray,
    hyper: EnsembleHyper,
    with_log: bool = False,
):
    """Train one member with minibatch adaptive-moment descent.

    The last ``validation_fraction`` of the rows (chronological order) is
    held out; training stops once the validation NLL has not strictly
    improved for ``patience_epochs`` epochs, and the parameters from the
    best validation epoch are returned. Fully deterministic given
    (member seed, data, hyper).
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = features.shape[0]
    if targets.shape[0] != n:
        raise ValueError("features and targets disagree on row count")
    input_size, hidden_size = member.w1.shape
    _check_arity(features, input_size)
    train_slice, val_slice = _chronological_split(n, hyper.validation_fraction)
    x_train, y_train = features[train_slice], targets[train_slice]
    x_val, y_val = features[val_slice], targets[val_slice]
    n_train = x_train.shape[0]
    if n_train < 2 * hyper.batch_size:
        raise ValueError(
            f"{n_train} training rows after the validation split; "
            f"need at least 2 x batch_size = {2 * hyper.batch_size}"
        )

    clamp = hyper.log_variance_clamp
    rng = _rng(member.rng_seed, 1)
    # The parameters under training live in one vector, updated in place
    # at every step; w1, b1, w2, b2 are views into it, and the gradient
    # vector has the same layout.
    theta = member.parameter_vector()
    grad = np.empty_like(theta)
    params = _parameter_views(theta, input_size, hidden_size)
    grads = _parameter_views(grad, input_size, hidden_size)
    moment1 = np.zeros_like(theta)
    moment2 = np.zeros_like(theta)
    work1 = np.empty_like(theta)
    work2 = np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    # Minibatches are consecutive slices of each epoch's shuffled rows;
    # only the last one may be short, and it gets work arrays of its own.
    full = _Scratch(hyper.batch_size, hidden_size)
    short = n_train % hyper.batch_size
    batches = [
        (slice(start, start + hyper.batch_size), full)
        for start in range(0, n_train - short, hyper.batch_size)
    ]
    if short:
        batches.append((slice(n_train - short, n_train), _Scratch(short, hidden_size)))

    best = member
    best_val = _eval_nll(params, x_val, y_val, clamp)
    best_epoch = 0
    log: list[tuple[int, float]] = []
    keep = 1.0 - hyper.dropout_rate

    for epoch in range(1, hyper.max_epochs + 1):
        order = rng.permutation(n_train)
        x_epoch, y_epoch = x_train[order], y_train[order]
        for rows, s in batches:
            mask = None
            if hyper.dropout_rate > 0.0:
                # Uniform draws, then in the same array the kept units
                # scaled by 1 / keep.
                rng.random(out=s.dropout)
                np.less(s.dropout, keep, out=s.kept)
                mask = np.divide(s.kept, keep, out=s.dropout)
            loss = _loss_into(
                params, grads, x_epoch[rows], y_epoch[rows], clamp, mask, s
            )
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch} (seed {member.rng_seed})"
                )
            step += 1
            scale = (
                hyper.learning_rate
                * math.sqrt(1.0 - beta2**step)
                / (1.0 - beta1**step)
            )
            # Adam over the whole vector:
            # moment1 = beta1 * moment1 + (1 - beta1) * grad
            np.multiply(moment1, beta1, out=moment1)
            np.add(moment1, np.multiply(grad, 1.0 - beta1, out=work1), out=moment1)
            # moment2 = beta2 * moment2 + (1 - beta2) * grad**2
            np.multiply(moment2, beta2, out=moment2)
            np.multiply(np.square(grad, out=work1), 1.0 - beta2, out=work1)
            np.add(moment2, work1, out=moment2)
            # theta -= scale * moment1 / (sqrt(moment2) + eps)
            np.add(np.sqrt(moment2, out=work1), eps, out=work1)
            np.divide(np.multiply(moment1, scale, out=work2), work1, out=work2)
            np.subtract(theta, work2, out=theta)

        val_nll = _eval_nll(params, x_val, y_val, clamp)
        if not np.isfinite(val_nll):
            raise TrainingError(
                f"non-finite validation loss at epoch {epoch} (seed {member.rng_seed})"
            )
        log.append((epoch, val_nll))
        if val_nll < best_val:
            best_val = val_nll
            best = Member(*(p.copy() for p in params), rng_seed=member.rng_seed)
            best_epoch = epoch
        if epoch - best_epoch >= hyper.patience_epochs:
            break

    if with_log:
        return best, log
    return best


@dataclass(frozen=True)
class Normaliser:
    """Per-column z-scoring fitted on the training split only."""

    mean: np.ndarray
    scale: np.ndarray
    zero_variance: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "scale", "zero_variance"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def fit(cls, features: np.ndarray) -> "Normaliser":
        features = np.atleast_2d(features)
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        zero = std == 0.0
        return cls(mean=mean, scale=np.where(zero, 1.0, std), zero_variance=zero)

    @classmethod
    def identity(cls, width: int) -> "Normaliser":
        return cls(
            mean=np.zeros(width),
            scale=np.ones(width),
            zero_variance=np.zeros(width, dtype=bool),
        )

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        single = features.ndim == 1
        batch = np.atleast_2d(features)
        if batch.shape[1] != self.mean.shape[0]:
            raise ValueError("feature arity does not match the normaliser")
        out = (batch - self.mean) / self.scale
        # A column constant in training carries no signal; pin it to zero.
        out[:, self.zero_variance] = 0.0
        return out[0] if single else out


@dataclass(frozen=True)
class Ensemble:
    """Trained members plus everything needed to reproduce their predictions."""

    members: tuple[Member, ...]
    normaliser: Normaliser
    log_variance_clamp: tuple[float, float]
    training_log: tuple[tuple[tuple[int, float], ...], ...]
    validation_part_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")
        if len({m.w1.shape for m in self.members}) != 1:
            raise ValueError("members must share one layout")
        seeds = [m.rng_seed for m in self.members]
        if len(set(seeds)) != len(seeds):
            raise ValueError("member seeds must be pairwise distinct")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(
            self,
            "log_variance_clamp",
            (float(self.log_variance_clamp[0]), float(self.log_variance_clamp[1])),
        )

    @property
    def member_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PredictiveSummary:
    """Ensemble prediction for one input, variance split by source.

    ``knowledge_variance`` is the spread of the member means (what more
    training data could remove); ``data_variance`` is the average
    predicted noise level (what no model could remove). Their sum is the
    total predictive variance.
    """

    mean: float
    knowledge_variance: float
    data_variance: float
    total_variance: float = field(init=False)

    def __post_init__(self) -> None:
        if self.knowledge_variance < 0.0 or self.data_variance < 0.0:
            raise ValueError("variance components must be non-negative")
        object.__setattr__(
            self, "total_variance", self.knowledge_variance + self.data_variance
        )


def train_ensemble(
    dataset: ActorDataset,
    targets: MetricSeries,
    hyper: EnsembleHyper,
    base_seed: int,
) -> Ensemble:
    """Train all members on the identical aligned split; seeds base_seed+m.

    Diversity comes purely from member initialisation: every member sees
    the full training split (no bagging).
    """
    features, y, ids = dataset.align(targets)
    if features.shape[0] == 0:
        raise ValueError(
            f"no part ids shared between actor {dataset.actor_id!r} and the metric"
        )
    train_slice, val_slice = _chronological_split(
        features.shape[0], hyper.validation_fraction
    )
    normaliser = Normaliser.fit(features[train_slice])
    normalised = normaliser.transform(features)
    results = [
        train_member(
            init_member(features.shape[1], hyper.hidden_size, base_seed + m),
            normalised,
            y,
            hyper,
            with_log=True,
        )
        for m in range(hyper.member_count)
    ]

    return Ensemble(
        members=tuple(member for member, _ in results),
        normaliser=normaliser,
        log_variance_clamp=hyper.log_variance_clamp,
        training_log=tuple(tuple(log) for _, log in results),
        validation_part_ids=tuple(ids[val_slice]),
    )


def _member_outputs(ensemble: Ensemble, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode (means, variances) stacked as (member, row)."""
    normalised = np.atleast_2d(ensemble.normaliser.transform(features))
    means, variances = [], []
    for member in ensemble.members:
        mean, log_var = forward(member, normalised, ensemble.log_variance_clamp)
        means.append(mean)
        variances.append(np.exp(log_var))
    return np.stack(means), np.stack(variances)


def predict(ensemble: Ensemble, x: np.ndarray) -> PredictiveSummary:
    """Combine member predictions for one input row.

    The total predictive variance equals the variance of the equal-weight
    Gaussian mixture over the members: spread of member means plus the
    average predicted noise variance.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("predict takes a single feature row")
    means, variances = _member_outputs(ensemble, x)
    mean = float(means.mean())
    knowledge = float(np.mean((means - mean) ** 2))
    data = float(variances.mean())
    return PredictiveSummary(mean=mean, knowledge_variance=knowledge, data_variance=data)


def total_uncertainty(
    ensemble: Ensemble,
    dataset: ActorDataset,
    targets: MetricSeries | None = None,
) -> float:
    """Scalar uncertainty an actor reports: mean total predictive variance
    over the held-out validation rows.

    Reads feature rows only. The optional metric series is used purely to
    assert that the validation part ids are still present; its values
    never enter the computation, so the report leaks no label information.
    """
    if not ensemble.validation_part_ids:
        raise ValueError("ensemble has an empty validation set")
    if targets is not None:
        known = set(targets.part_ids)
        missing = [pid for pid in ensemble.validation_part_ids if pid not in known]
        if missing:
            raise ValueError(f"validation part ids missing from metric: {missing[:3]}")
    rows = dataset.rows_for(ensemble.validation_part_ids)
    means, variances = _member_outputs(ensemble, rows)
    ensemble_mean = means.mean(axis=0)
    knowledge = np.mean((means - ensemble_mean) ** 2, axis=0)
    data = variances.mean(axis=0)
    return float(np.mean(knowledge + data))


def save_ensemble(ensemble: Ensemble, path: str | Path) -> None:
    """Checkpoint to a single self-describing binary file."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    for i, member in enumerate(ensemble.members):
        arrays[f"member{i}_w1"] = member.w1
        arrays[f"member{i}_b1"] = member.b1
        arrays[f"member{i}_w2"] = member.w2
        arrays[f"member{i}_b2"] = member.b2
    arrays["normaliser_mean"] = ensemble.normaliser.mean
    arrays["normaliser_scale"] = ensemble.normaliser.scale
    arrays["normaliser_zero_variance"] = ensemble.normaliser.zero_variance
    meta = {
        "member_seeds": [m.rng_seed for m in ensemble.members],
        "log_variance_clamp": list(ensemble.log_variance_clamp),
        "training_log": [[[e, v] for e, v in log] for log in ensemble.training_log],
        "validation_part_ids": list(ensemble.validation_part_ids),
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_ensemble(path: str | Path) -> Ensemble:
    """Load a checkpoint; predictions must match the saved ensemble exactly."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        members = tuple(
            Member(
                w1=data[f"member{i}_w1"],
                b1=data[f"member{i}_b1"],
                w2=data[f"member{i}_w2"],
                b2=data[f"member{i}_b2"],
                rng_seed=seed,
            )
            for i, seed in enumerate(meta["member_seeds"])
        )
        normaliser = Normaliser(
            mean=data["normaliser_mean"],
            scale=data["normaliser_scale"],
            zero_variance=data["normaliser_zero_variance"],
        )
    return Ensemble(
        members=members,
        normaliser=normaliser,
        log_variance_clamp=tuple(meta["log_variance_clamp"]),
        training_log=tuple(
            tuple((int(e), float(v)) for e, v in log) for log in meta["training_log"]
        ),
        validation_part_ids=tuple(meta["validation_part_ids"]),
    )
