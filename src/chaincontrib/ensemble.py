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

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from chaincontrib.dataset import require_int, require_real, require_unique


class TrainingError(RuntimeError):
    """Training aborted, typically on a non-finite loss."""


# Bounds of the predicted log-variance: a numerical guard that keeps the
# predicted variance and its inverse in range, not a hyperparameter.
LOG_VARIANCE_CLAMP = (-10.0, 10.0)

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
    batch_size: int = 128
    patience_epochs: int = 100
    max_epochs: int = 2000
    learning_rate: float = 1e-3
    validation_fraction: float = 0.2

    def __post_init__(self) -> None:
        for name, least in _INTEGER_MINIMUMS.items():
            require_int(name, getattr(self, name), least)
        for name in ("learning_rate", "validation_fraction"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")


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
    """(w1, b1, w2, b2) as views, with a leading member axis, into an
    (M, P) array whose rows are in parameter_vector() order."""
    count = flat.shape[0]
    w1_end = input_size * hidden_size
    b1_end = w1_end + hidden_size
    w2_end = b1_end + 2 * hidden_size
    return (
        flat[:, :w1_end].reshape(count, input_size, hidden_size),
        flat[:, w1_end:b1_end],
        flat[:, b1_end:w2_end].reshape(count, hidden_size, 2),
        flat[:, w2_end:],
    )


def _forward_into(params, batch, hidden, out, active=None) -> None:
    """The network's only forward pass, written into preallocated arrays.

    ``params`` is (w1, b1, w2, b2) of one member, or stacked as from
    ``_parameter_views`` with one batch for all members or one each.
    ``hidden`` receives the rectified hidden layer and ``out`` the two
    heads; ``active`` marks where the rectifier passes gradient.
    """
    w1, b1, w2, b2 = params
    np.matmul(batch, w1, out=hidden)
    np.add(hidden, b1[..., None, :], out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    if active is not None:
        np.greater(hidden, 0.0, out=active)
    np.matmul(hidden, w2, out=out)
    np.add(out, b2[..., None, :], out=out)


def _evaluate(params, batch: np.ndarray, buffers=None) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass over a (rows, inputs) batch.

    ``params`` is one member's (w1, b1, w2, b2) or stacked members' as
    from ``_parameter_views``; returns the means and the clamped
    log-variances, per row or per (member, row). ``buffers`` are the
    (hidden, out) arrays of ``_forward_into`` for this shape, or None to
    allocate them; the trainer passes views into its one work buffer, and
    the returned means are a view into ``out``, valid until that buffer is
    next written.
    """
    w1 = params[0]
    rows = (*w1.shape[:-2], batch.shape[0])
    hidden, out = buffers or (np.empty((*rows, w1.shape[-1])), np.empty((*rows, 2)))
    _forward_into(params, batch, hidden, out)
    return out[..., 0], np.clip(out[..., 1], *LOG_VARIANCE_CLAMP)


def forward(member: Member, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pass over a (rows, inputs) batch; returns (mean,
    clamped log-variance) per row."""
    batch = np.asarray(x, dtype=float)
    _check_arity(batch, member.w1.shape[0])
    return _evaluate((member.w1, member.b1, member.w2, member.b2), batch)


def nll_loss(mean, log_var, target):
    """Gaussian negative log-likelihood, additive constant dropped.

    log(variance)/2 + squared error scaled by the precision; elementwise
    over arrays.
    """
    mean = np.asarray(mean, dtype=float)
    log_var = np.asarray(log_var, dtype=float)
    target = np.asarray(target, dtype=float)
    return 0.5 * log_var + 0.5 * (target - mean) ** 2 * np.exp(-log_var)


def _carve(buffer: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive C-ordered arrays of the given shapes, as views from the
    start of a flat buffer."""
    arrays, start = [], 0
    for shape in shapes:
        end = start + math.prod(shape)
        arrays.append(buffer[start:end].reshape(shape))
        start = end
    return arrays


class _Scratch:
    """Work arrays of the gradient kernel for a batch of ``rows`` rows for
    each of ``members`` members, indexed (member, batch row, ...).

    The arrays are views carved from the start of a flat float64 buffer
    and a flat bool buffer of at least ``sizes(...)`` elements. Two sets
    may share the buffers as long as they are never used together: the
    kernel writes every array before it reads it.
    """

    @staticmethod
    def _shapes(members: int, rows: int, hidden_size: int) -> tuple[list, list]:
        grid, flat = (members, rows, hidden_size), members * rows
        floats = [(2, *grid), (2, members, rows, 2), (6, flat), (members,)]
        flags = [grid, (2, flat)]
        return floats, flags

    @classmethod
    def sizes(cls, members: int, rows: int, hidden_size: int) -> tuple[int, int]:
        """Elements needed of the (float64, bool) buffers."""
        return tuple(
            sum(map(math.prod, shapes)) for shapes in cls._shapes(members, rows, hidden_size)
        )

    def __init__(
        self, members: int, rows: int, hidden_size: int, floats: np.ndarray, flags: np.ndarray
    ):
        float_shapes, flag_shapes = self._shapes(members, rows, hidden_size)
        (self.hidden, self.d_hidden), (self.out, self.d_out), sixes, self.total = (
            _carve(floats, *float_shapes)
        )
        self.active, (self.inside, self.below) = _carve(flags, *flag_shapes)
        # The per-row terms are flat over (member, row): numpy runs a flat
        # strided column of the heads faster than a 2-d one.
        self.raw = self.out.reshape(-1, 2)[:, 1]
        self.d_mean, self.d_log_var = self.d_out.reshape(-1, 2).T
        self.log_var, self.negated, self.inv_var, self.residual, self.fit, self.terms = sixes


def _loss_into(params, grads, batch, y, s: _Scratch) -> list[float]:
    """Each member's mean NLL over its batch; writes the analytic gradients
    into ``grads``.

    The only gradient code: ``loss_and_gradients`` and ``_train_lockstep``
    both call it. ``params`` and ``grads`` are stacked (w1, b1, w2, b2),
    ``batch`` is (members, rows, inputs) and ``y`` (members, rows); ``s``
    fits exactly that shape. Every array of ``s`` is written before it is
    read, so nothing carries over between calls and ``s`` may share its
    buffers with work done between them. Every product and sum runs per
    member, in the one-member order. Inputs are not checked here.
    """
    members, n = y.shape
    lo, hi = LOG_VARIANCE_CLAMP
    _forward_into(params, batch, s.hidden, s.out, s.active)
    log_var = np.minimum(np.maximum(s.raw, lo, out=s.log_var), hi, out=s.log_var)
    inv_var = np.exp(np.negative(log_var, out=s.negated), out=s.inv_var)
    residual = s.residual
    np.subtract(s.out[..., 0], y, out=residual.reshape(members, n))
    # fit = 0.5 * residual**2 * inv_var, the precision-weighted error term.
    fit = np.multiply(np.square(residual, out=s.fit), 0.5, out=s.fit)
    np.multiply(fit, inv_var, out=fit)
    terms = np.add(np.multiply(log_var, 0.5, out=s.terms), fit, out=s.terms)
    totals = np.add.reduce(terms.reshape(members, n), axis=1, out=s.total)
    losses = [total / n for total in totals.tolist()]

    np.divide(np.multiply(residual, inv_var, out=s.d_mean), n, out=s.d_mean)
    np.divide(np.subtract(0.5, fit, out=s.d_log_var), n, out=s.d_log_var)
    # No gradient flows through a clamped log-variance.
    inside = np.greater(s.raw, lo, out=s.inside)
    np.logical_and(inside, np.less(s.raw, hi, out=s.below), out=inside)
    np.copyto(s.d_log_var, 0.0, where=np.logical_not(inside, out=inside))

    w2 = params[2]
    grad_w1, grad_b1, grad_w2, grad_b2 = grads
    np.matmul(np.swapaxes(s.hidden, -1, -2), s.d_out, out=grad_w2)
    np.add.reduce(s.d_out, axis=1, out=grad_b2)
    d_pre = np.matmul(s.d_out, np.swapaxes(w2, -1, -2), out=s.d_hidden)
    np.multiply(d_pre, s.active, out=d_pre)
    np.matmul(np.swapaxes(batch, -1, -2), d_pre, out=grad_w1)
    np.add.reduce(d_pre, axis=1, out=grad_b1)
    return losses


def loss_and_gradients(
    member: Member, features: np.ndarray, targets: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean NLL over a batch and its analytic parameter gradients."""
    batch = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    n = batch.shape[0]
    if y.shape[0] != n:
        raise ValueError("features and targets disagree on row count")
    input_size, hidden_size = member.w1.shape
    _check_arity(batch, input_size)
    # The one-member case of the stacked kernel.
    theta = member.parameter_vector()[None]
    grad = np.empty_like(theta)
    params, grads = (_parameter_views(a, input_size, hidden_size) for a in (theta, grad))
    floats, flags = _Scratch.sizes(1, n, hidden_size)
    s = _Scratch(1, n, hidden_size, np.empty(floats), np.empty(flags, dtype=bool))
    (loss,) = _loss_into(params, grads, batch[None], y[None], s)
    return loss, dict(zip(("w1", "b1", "w2", "b2"), (g[0] for g in grads)))


def _chronological_split(row_count: int, validation_fraction: float) -> tuple[slice, slice]:
    # Validation = most recent tail, keeping the observations time-ordered.
    n_val = max(1, int(row_count * validation_fraction))
    n_train = row_count - n_val
    return slice(0, n_train), slice(n_train, row_count)


def _validation_nll(params, x_val: np.ndarray, y_val: np.ndarray, buffers=None) -> list[float]:
    # Each stacked member's mean NLL over the held-out rows, one row mean
    # per member as for a single member.
    return np.mean(nll_loss(*_evaluate(params, x_val, buffers), y_val), axis=1).tolist()


def _train_lockstep(
    members: Sequence[Member],
    features: np.ndarray,
    targets: np.ndarray,
    hyper: EnsembleHyper,
) -> tuple[tuple[Member, ...], list[list[tuple[int, float]]]]:
    """Train members of one layout together with minibatch adaptive-moment
    descent; returns the trained members and their validation logs.

    The last ``validation_fraction`` of the rows (chronological order) is
    held out. A member stops once its validation NLL has not strictly
    improved for ``patience_epochs`` epochs and gets back the parameters of
    its best validation epoch. All members step in lockstep, one stacked
    kernel call per minibatch, but each shuffles its rows from its own
    stream: its result depends only on its seed, the data and ``hyper``.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = features.shape[0]
    if targets.shape[0] != n:
        raise ValueError("features and targets disagree on row count")
    input_size, hidden_size = members[0].w1.shape
    _check_arity(features, input_size)
    train_slice, val_slice = _chronological_split(n, hyper.validation_fraction)
    x_train, y_train = features[train_slice], targets[train_slice]
    x_val, y_val = features[val_slice], targets[val_slice]
    n_train, size = x_train.shape[0], hyper.batch_size
    if n_train < 2 * size:
        raise ValueError(
            f"{n_train} training rows after the validation split; "
            f"need at least 2 x batch_size = {2 * size}"
        )

    count = len(members)
    # The parameters under training live in one (member, P) array in
    # parameter_vector() order, updated in place at every step. The
    # gradients, Adam's moments and two work arrays share its layout.
    theta = np.stack([m.parameter_vector() for m in members])
    best_theta = theta.copy()
    grad, moment1, moment2, work1, work2 = np.zeros((5, *theta.shape))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    # Each epoch gathers every member's shuffled rows at once; minibatches
    # are consecutive slices of them, and only the last may be short.
    orders = np.empty((count, n_train), dtype=np.intp)
    x_epoch = np.empty((count, n_train, input_size))
    y_epoch = np.empty((count, n_train))
    # Row i of the arrays above belongs to member live[i], whose stream is
    # rngs[i]; the rows of a member that stops are dropped.
    live, bound = list(range(count)), 0
    rngs = [_rng(m.rng_seed, 1) for m in members]
    # One float and one bool work buffer for the whole call, shared by three
    # users that are never live together: the full-batch kernel scratch, the
    # short last batch's scratch and the validation pass's (hidden, out)
    # arrays. Steps run one batch at a time, and the validation pass only
    # after an epoch's last step. Each user takes views from the start of
    # the buffers, so they fit the larger of the full-batch scratch and the
    # validation arrays; the bool buffer is the scratch's alone.
    n_val = len(y_val)
    float_size, flag_size = _Scratch.sizes(count, size, hidden_size)
    floats = np.empty(max(float_size, count * n_val * (hidden_size + 2)))
    flags = np.empty(flag_size, dtype=bool)
    best_val = _validation_nll(
        _parameter_views(theta, input_size, hidden_size),
        x_val,
        y_val,
        _carve(floats, (count, n_val, hidden_size), (count, n_val, 2)),
    )
    best_epoch = [0] * count
    logs: list[list[tuple[int, float]]] = [[] for _ in members]

    for epoch in range(1, hyper.max_epochs + 1):
        k = len(live)
        if k != bound:
            # Views of the first k rows, those of the members still training,
            # and work arrays for k members, for training and for the
            # evaluation pass: made at the start and again only after a
            # member stops, all from the same two buffers.
            theta_k, grad_k, moment1_k, moment2_k, work1_k, work2_k = (
                a[:k] for a in (theta, grad, moment1, moment2, work1, work2)
            )
            params = _parameter_views(theta_k, input_size, hidden_size)
            grads = _parameter_views(grad_k, input_size, hidden_size)
            xs, ys = x_epoch[:k], y_epoch[:k]
            val_buffers = _carve(floats, (k, n_val, hidden_size), (k, n_val, 2))
            work = {
                r: _Scratch(k, r, hidden_size, floats, flags)
                for r in {size, n_train % size} - {0}
            }
            batches = [
                (xs[:, a : a + size], ys[:, a : a + size], work[min(size, n_train - a)])
                for a in range(0, n_train, size)
            ]
            bound = k
        for i, rng in enumerate(rngs):
            orders[i] = rng.permutation(n_train)
        np.take(x_train, orders[:k], axis=0, out=xs, mode="clip")
        np.take(y_train, orders[:k], out=ys, mode="clip")
        for batch, y, s in batches:
            losses = _loss_into(params, grads, batch, y, s)
            failed = [live[i] for i, loss in enumerate(losses) if not math.isfinite(loss)]
            if failed:
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch} "
                    f"(seed {members[failed[0]].rng_seed})"
                )
            step += 1
            scale = (
                hyper.learning_rate
                * math.sqrt(1.0 - beta2**step)
                / (1.0 - beta1**step)
            )
            # Adam over all live rows at once:
            # moment1 = beta1 * moment1 + (1 - beta1) * grad
            np.multiply(moment1_k, beta1, out=moment1_k)
            np.add(moment1_k, np.multiply(grad_k, 1.0 - beta1, out=work1_k), out=moment1_k)
            # moment2 = beta2 * moment2 + (1 - beta2) * grad**2
            np.multiply(moment2_k, beta2, out=moment2_k)
            np.multiply(np.square(grad_k, out=work1_k), 1.0 - beta2, out=work1_k)
            np.add(moment2_k, work1_k, out=moment2_k)
            # theta -= scale * moment1 / (sqrt(moment2) + eps)
            np.add(np.sqrt(moment2_k, out=work1_k), eps, out=work1_k)
            np.divide(np.multiply(moment1_k, scale, out=work2_k), work1_k, out=work2_k)
            np.subtract(theta_k, work2_k, out=theta_k)

        running = []
        val_nlls = _validation_nll(params, x_val, y_val, val_buffers)
        for i, (m, val_nll) in enumerate(zip(live, val_nlls)):
            if not np.isfinite(val_nll):
                raise TrainingError(
                    f"non-finite validation loss at epoch {epoch} "
                    f"(seed {members[m].rng_seed})"
                )
            logs[m].append((epoch, val_nll))
            if val_nll < best_val[m]:
                best_val[m], best_theta[m], best_epoch[m] = val_nll, theta[i], epoch
            if epoch - best_epoch[m] < hyper.patience_epochs:
                running.append(i)
        if len(running) < k:
            if not running:
                break
            # Move the rows of the members still training to the front, so
            # a stopped member costs no further work.
            for array in (theta, moment1, moment2):
                array[: len(running)] = array[running]
            live = [live[i] for i in running]
            rngs = [rngs[i] for i in running]

    w1, b1, w2, b2 = _parameter_views(best_theta, input_size, hidden_size)
    trained = tuple(
        Member(w1=w1[i], b1=b1[i], w2=w2[i], b2=b2[i], rng_seed=m.rng_seed)
        for i, m in enumerate(members)
    )
    return trained, logs


def train_member(
    member: Member,
    features: np.ndarray,
    targets: np.ndarray,
    hyper: EnsembleHyper,
    with_log: bool = False,
):
    """Train one member: the one-member case of ``_train_lockstep``.

    Returns the parameters of the best validation epoch, and with
    ``with_log`` also the (epoch, validation NLL) log. Fully deterministic
    given (member seed, data, hyper).
    """
    (trained,), (log,) = _train_lockstep((member,), features, targets, hyper)
    if with_log:
        return trained, log
    return trained


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

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Z-scores of an (n, d) array of feature rows."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.mean.shape[0]:
            raise ValueError("feature arity does not match the normaliser")
        out = (features - self.mean) / self.scale
        # A column constant in training carries no signal; pin it to zero.
        out[:, self.zero_variance] = 0.0
        return out


@dataclass(frozen=True)
class Ensemble:
    """Trained members plus everything needed to reproduce their predictions."""

    members: tuple[Member, ...]
    normaliser: Normaliser
    training_log: tuple[tuple[tuple[int, float], ...], ...]
    validation_rows: np.ndarray  # held out, raw; what total_uncertainty scores

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")
        if len({m.w1.shape for m in self.members}) != 1:
            raise ValueError("members must share one layout")
        require_unique("member seed", [m.rng_seed for m in self.members])
        rows = np.array(self.validation_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("an ensemble needs a non-empty 2-d set of validation rows")
        rows.setflags(write=False)
        object.__setattr__(self, "validation_rows", rows)
        object.__setattr__(self, "members", tuple(self.members))


def train_ensemble(
    features: np.ndarray,
    targets: np.ndarray,
    hyper: EnsembleHyper,
    base_seed: int,
) -> Ensemble:
    """Train all members on one chronological split of the aligned rows
    (as ``ActorDataset.align`` returns them); seeds base_seed+m.

    Diversity comes purely from member initialisation: every member sees
    the full training split (no bagging).
    """
    if len(features) == 0:
        raise ValueError("no rows to train on")
    train_slice, val_slice = _chronological_split(len(features), hyper.validation_fraction)
    normaliser = Normaliser.fit(features[train_slice])
    members, logs = _train_lockstep(
        [
            init_member(features.shape[1], hyper.hidden_size, base_seed + m)
            for m in range(hyper.member_count)
        ],
        normaliser.transform(features),
        targets,
        hyper,
    )
    return Ensemble(
        members=members,
        normaliser=normaliser,
        training_log=tuple(tuple(log) for log in logs),
        validation_rows=features[val_slice],
    )


def _decompose(ensemble: Ensemble, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row: the ensemble mean, the knowledge variance (spread of the
    member means) and the data variance (mean of the members' predicted
    variances). Their sum is the variance of the equal-weight Gaussian
    mixture over the members.

    One evaluation-mode forward pass over the stacked members.
    """
    batch = ensemble.normaliser.transform(rows)
    input_size, hidden_size = ensemble.members[0].w1.shape
    _check_arity(batch, input_size)
    theta = np.stack([m.parameter_vector() for m in ensemble.members])
    means, log_vars = _evaluate(_parameter_views(theta, input_size, hidden_size), batch)
    mean = means.mean(axis=0)
    return mean, np.mean((means - mean) ** 2, axis=0), np.exp(log_vars).mean(axis=0)


def total_uncertainty(ensemble: Ensemble) -> float:
    """Scalar uncertainty an actor reports: mean total predictive variance
    over the ensemble's held-out validation rows.

    Reads feature rows only, so the report carries no label information.
    """
    _, knowledge, data = _decompose(ensemble, ensemble.validation_rows)
    return float(np.mean(knowledge + data))
