"""Ensemble module: init, forward, loss, gradients, training, prediction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincontrib.dataset import ActorDataset, MetricSeries
from chaincontrib.ensemble import (
    LOG_VARIANCE_CLAMP,
    Ensemble,
    EnsembleHyper,
    Member,
    Normaliser,
    TrainingError,
    _decompose,
    forward,
    init_member,
    loss_and_gradients,
    nll_loss,
    total_uncertainty,
    train_ensemble,
    train_member,
)

SMALL_HYPER = EnsembleHyper(
    member_count=2,
    hidden_size=8,
    batch_size=16,
    patience_epochs=100,
    max_epochs=600,
    validation_fraction=0.2,
)


def constant_member(mu: float, log_var: float, input_size: int = 3, hidden: int = 4, seed: int = 0) -> Member:
    """Member that outputs (mu, log_var) for every input."""
    return Member(
        w1=np.zeros((input_size, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, 2)),
        b2=np.array([mu, log_var], dtype=float),
        rng_seed=seed,
    )


def identity_normaliser(width: int) -> Normaliser:
    return Normaliser(
        mean=np.zeros(width),
        scale=np.ones(width),
        zero_variance=np.zeros(width, dtype=bool),
    )


def hand_ensemble(members, width: int = 3, val_rows=None) -> Ensemble:
    return Ensemble(
        members=tuple(members),
        normaliser=identity_normaliser(width),
        training_log=tuple(() for _ in members),
        validation_rows=np.zeros((1, width)) if val_rows is None else val_rows,
    )


class TestHyper:
    def test_defaults_are_valid(self):
        hyper = EnsembleHyper()
        assert hyper.member_count == 5
        assert hyper.hidden_size == 50
        assert hyper.batch_size == 128
        assert hyper.patience_epochs == 100

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            EnsembleHyper(member_count=1)
        with pytest.raises(ValueError):
            EnsembleHyper(patience_epochs=0)
        with pytest.raises(ValueError):
            EnsembleHyper(validation_fraction=1.0)

    @pytest.mark.parametrize(
        "name", ["member_count", "hidden_size", "batch_size", "patience_epochs", "max_epochs"]
    )
    def test_integer_fields_reject_other_types(self, name):
        for value in (2.5, 3.0, True, "3"):
            with pytest.raises(TypeError, match=name):
                EnsembleHyper(**{name: value})

    @pytest.mark.parametrize("name", ["learning_rate", "validation_fraction"])
    def test_float_fields_take_finite_numbers_only(self, name):
        for value in (True, False, "0.1", None):
            with pytest.raises(TypeError, match=name):
                EnsembleHyper(**{name: value})
        for value in (math.inf, math.nan, int("9" * 400)):
            with pytest.raises(ValueError, match=name):
                EnsembleHyper(**{name: value})

    def test_dict_round_trip_rejects_unknown_fields(self):
        hyper = EnsembleHyper(member_count=3, hidden_size=10)
        assert EnsembleHyper(**dataclasses.asdict(hyper)) == hyper
        with pytest.raises(TypeError, match="momentum"):
            EnsembleHyper(member_count=3, momentum=0.9)


class TestInitMember:
    def test_same_seed_identical(self):
        a = init_member(4, 6, seed=42)
        b = init_member(4, 6, seed=42)
        np.testing.assert_array_equal(a.parameter_vector(), b.parameter_vector())

    def test_different_seeds_differ(self):
        a = init_member(4, 6, seed=1)
        b = init_member(4, 6, seed=2)
        assert np.any(a.parameter_vector() != b.parameter_vector())

    def test_shapes(self):
        member = init_member(8, 50, seed=0)
        assert member.w1.shape == (8, 50)
        assert member.b1.shape == (50,)
        assert member.w2.shape == (50, 2)
        assert member.b2.shape == (2,)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            init_member(0, 6, seed=0)
        with pytest.raises(ValueError, match="positive"):
            init_member(4, 0, seed=0)

    def test_two_output_heads_enforced(self):
        with pytest.raises(ValueError, match="two outputs"):
            Member(
                w1=np.zeros((3, 4)),
                b1=np.zeros(4),
                w2=np.zeros((4, 3)),
                b2=np.zeros(3),
                rng_seed=0,
            )


class TestForward:
    def test_zero_parameters_give_zero_outputs(self):
        member = constant_member(0.0, 0.0)
        x = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-4.0, 2.0, 7.0]])
        mu, log_var = forward(member, x)
        np.testing.assert_array_equal(mu, 0.0)
        np.testing.assert_array_equal(log_var, 0.0)

    def test_evaluation_mode_deterministic(self):
        member = init_member(3, 5, seed=7)
        x = np.array([[0.3, -1.2, 0.8]])
        np.testing.assert_array_equal(forward(member, x), forward(member, x))

    def test_log_variance_clamped(self):
        member = constant_member(0.0, -50.0)
        _, log_var = forward(member, np.zeros((1, 3)))
        assert log_var[0] == LOG_VARIANCE_CLAMP[0] == -10.0
        member_hi = constant_member(0.0, 50.0)
        _, log_var_hi = forward(member_hi, np.zeros((1, 3)))
        assert log_var_hi[0] == LOG_VARIANCE_CLAMP[1] == 10.0

    def test_arity_mismatch_rejected(self):
        member = init_member(3, 5, seed=0)
        with pytest.raises(ValueError, match="arity"):
            forward(member, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="arity"):
            forward(member, np.zeros(3))  # a single row must come as a batch

    def test_batch_matches_per_row(self):
        # Bitwise equality across batch shapes is not promised (the matrix
        # product may take a different kernel), only numerical agreement.
        member = init_member(3, 5, seed=1)
        batch = np.random.default_rng(0).normal(size=(6, 3))
        mus, lvs = forward(member, batch)
        for i in range(6):
            mu, lv = forward(member, batch[i : i + 1])
            np.testing.assert_allclose([mu[0], lv[0]], [mus[i], lvs[i]], rtol=1e-12)


class TestNllLoss:
    def test_exact_mean_unit_variance_is_zero(self):
        assert nll_loss(3.0, 0.0, 3.0) == 0.0

    def test_unit_error_unit_variance(self):
        assert nll_loss(0.0, 0.0, 1.0) == 0.5

    def test_exact_mean_log_variance_two(self):
        assert nll_loss(5.0, 2.0, 5.0) == 1.0

    def test_vectorised(self):
        values = nll_loss(np.zeros(2), np.zeros(2), np.array([0.0, 1.0]))
        np.testing.assert_allclose(values, [0.0, 0.5])


def finite_difference_grads(member: Member, x, y, h=1e-5):
    grads = {}
    arrays = {"w1": member.w1, "b1": member.b1, "w2": member.w2, "b2": member.b2}

    def loss_with(name, arr):
        parts = dict(arrays)
        parts[name] = arr
        probe = Member(
            w1=parts["w1"], b1=parts["b1"], w2=parts["w2"], b2=parts["b2"], rng_seed=0
        )
        loss, _ = loss_and_gradients(probe, x, y)
        return loss

    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = arr.copy()
            plus[idx] += h
            minus = arr.copy()
            minus[idx] -= h
            grad[idx] = (loss_with(name, plus) - loss_with(name, minus)) / (2 * h)
            it.iternext()
        grads[name] = grad
    return grads


def gradcheck_case(seed: int):
    """Member + batch whose pre-activations stay clear of kinks and clamps."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        member = init_member(3, 4, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        pre = x @ member.w1 + member.b1
        raw_lv = np.maximum(pre, 0.0) @ member.w2[:, 1] + member.b2[1]
        if np.min(np.abs(pre)) > 1e-3 and np.min(
            np.abs(raw_lv[:, None] - np.array(LOG_VARIANCE_CLAMP))
        ) > 1e-3:
            return member, x, y
    raise AssertionError("could not find a kink-free case")


class TestGradients:
    def assert_close_to_fd(self, member, x, y):
        _, analytic = loss_and_gradients(member, x, y)
        numeric = finite_difference_grads(member, x, y)
        for name in ("w1", "b1", "w2", "b2"):
            ga, gn = analytic[name], numeric[name]
            denom = max(np.linalg.norm(ga), np.linalg.norm(gn), 1e-12)
            rel = np.linalg.norm(ga - gn) / denom
            assert rel < 1e-4, f"{name}: relative error {rel:.2e}"

    def test_matches_finite_differences(self):
        for seed in (0, 1, 2):
            member, x, y = gradcheck_case(seed)
            self.assert_close_to_fd(member, x, y)

    def test_clamped_log_variance_has_zero_gradient(self):
        member = constant_member(0.0, 20.0)  # raw log-variance far past the cap
        x = np.random.default_rng(1).normal(size=(4, 3))
        y = np.zeros(4)
        _, grads = loss_and_gradients(member, x, y)
        assert grads["b2"][1] == 0.0
        np.testing.assert_array_equal(grads["w2"][:, 1], 0.0)

    def test_loss_value_matches_nll(self):
        member, x, y = gradcheck_case(4)
        loss, _ = loss_and_gradients(member, x, y)
        mu, lv = forward(member, x)
        assert loss == pytest.approx(float(np.mean(nll_loss(mu, lv, y))))


def constant_target_data(seed=0, rows=200, c=2.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, 3)), np.full(rows, c)


class TestTrainMember:
    def test_constant_target_reaches_analytic_optimum(self):
        x, y = constant_target_data()
        member = init_member(3, 8, seed=5)
        trained = train_member(member, x, y, SMALL_HYPER)
        val_rows = x[-40:]
        mu, _ = forward(trained, val_rows)
        assert np.all(np.abs(mu - 2.0) < 0.05)

    def test_no_improvement_stops_after_patience(self):
        x, y = constant_target_data()
        member = init_member(3, 8, seed=5)
        hyper = EnsembleHyper(
            member_count=2,
            hidden_size=8,
            batch_size=16,
            patience_epochs=7,
            max_epochs=500,
            learning_rate=0.0,
        )
        trained, log = train_member(member, x, y, hyper, with_log=True)
        # Zero learning rate: no strict improvement ever, so the run stops
        # after exactly `patience` epochs and returns the starting weights.
        assert len(log) == 7
        np.testing.assert_array_equal(
            trained.parameter_vector(), member.parameter_vector()
        )

    def test_returns_best_epoch_not_last(self):
        x, y = constant_target_data()
        member = init_member(3, 8, seed=5)
        hyper = EnsembleHyper(
            member_count=2,
            hidden_size=8,
            batch_size=16,
            patience_epochs=5,
            max_epochs=500,
        )
        trained, log = train_member(member, x, y, hyper, with_log=True)
        epochs = [e for e, _ in log]
        losses = dict(log)
        best_epoch = min(losses, key=losses.get)
        assert epochs[-1] == best_epoch + 5
        x_val, y_val = x[-40:], y[-40:]
        mu, lv = forward(trained, x_val)
        got = float(np.mean(nll_loss(mu, lv, y_val)))
        assert got == pytest.approx(losses[best_epoch])

    def test_deterministic_given_seed_data_hyper(self):
        x, y = constant_target_data()
        hyper = EnsembleHyper(
            member_count=2,
            hidden_size=8,
            batch_size=16,
            patience_epochs=10,
            max_epochs=40,
        )
        a = train_member(init_member(3, 8, 5), x, y, hyper)
        b = train_member(init_member(3, 8, 5), x, y, hyper)
        np.testing.assert_array_equal(a.parameter_vector(), b.parameter_vector())

    def test_too_few_rows_rejected(self):
        x, y = constant_target_data(rows=30)
        member = init_member(3, 8, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            train_member(member, x, y, SMALL_HYPER)

    def test_nonfinite_loss_reports_epoch(self):
        x, y = constant_target_data()
        x = x.copy()
        x[0, 0] = 1e160  # poison one training row to overflow the loss
        member = init_member(3, 8, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train_member(member, x, y, SMALL_HYPER)



def reference_train_member(member: Member, features, targets, hyper: EnsembleHyper):
    """The trainer as it was written before the flat-vector kernel: fresh
    arrays for every product, a fancy-indexed gather per minibatch and one
    Adam update per parameter array. Same float operations in the same
    order, so the kernel must reproduce it bit for bit."""
    lo, hi = LOG_VARIANCE_CLAMP

    def layers(p, batch):
        pre = batch @ p["w1"] + p["b1"]
        hidden = np.maximum(pre, 0.0)
        return pre, hidden, hidden @ p["w2"] + p["b2"]

    def val_nll(p):
        _, _, out = layers(p, x_val)
        log_var = np.clip(out[:, 1], lo, hi)
        return float(np.mean(nll_loss(out[:, 0], log_var, y_val)))

    def loss_and_grads(p, batch, y):
        n = batch.shape[0]
        pre, hidden, out = layers(p, batch)
        mean, raw_log_var = out[:, 0], out[:, 1]
        log_var = np.clip(raw_log_var, lo, hi)
        inv_var = np.exp(-log_var)
        residual = mean - y
        loss = float(np.mean(0.5 * log_var + 0.5 * residual**2 * inv_var))
        d_out = np.empty_like(out)
        d_out[:, 0] = residual * inv_var / n
        inside = (raw_log_var > lo) & (raw_log_var < hi)
        d_out[:, 1] = np.where(inside, (0.5 - 0.5 * residual**2 * inv_var) / n, 0.0)
        d_pre = d_out @ p["w2"].T * (pre > 0.0)
        grads = {
            "w1": batch.T @ d_pre,
            "b1": d_pre.sum(axis=0),
            "w2": hidden.T @ d_out,
            "b2": d_out.sum(axis=0),
        }
        return loss, grads

    n_val = max(1, int(len(features) * hyper.validation_fraction))
    x_train, y_train = features[:-n_val], targets[:-n_val]
    x_val, y_val = features[-n_val:], targets[-n_val:]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=member.rng_seed, spawn_key=(1,))
    )
    params = {k: getattr(member, k).copy() for k in ("w1", "b1", "w2", "b2")}
    moment1 = {k: np.zeros_like(v) for k, v in params.items()}
    moment2 = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    best, best_val, best_epoch = {k: v.copy() for k, v in params.items()}, val_nll(params), 0
    log = []
    for epoch in range(1, hyper.max_epochs + 1):
        order = rng.permutation(x_train.shape[0])
        for start in range(0, x_train.shape[0], hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            _, grads = loss_and_grads(params, x_train[idx], y_train[idx])
            step += 1
            scale = hyper.learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            for key, grad in grads.items():
                moment1[key] = beta1 * moment1[key] + (1.0 - beta1) * grad
                moment2[key] = beta2 * moment2[key] + (1.0 - beta2) * grad**2
                params[key] -= scale * moment1[key] / (np.sqrt(moment2[key]) + eps)
        nll = val_nll(params)
        log.append((epoch, nll))
        if nll < best_val:
            best, best_val, best_epoch = {k: v.copy() for k, v in params.items()}, nll, epoch
        if epoch - best_epoch >= hyper.patience_epochs:
            break
    vector = np.concatenate([best["w1"].ravel(), best["b1"], best["w2"].ravel(), best["b2"]])
    return vector, log


def noisy_linear_data(rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 3))
    return x, x @ np.array([1.5, -1.0, 0.5]) + rng.normal(0.0, 0.7, size=rows)


def raw_log_variance(member: Member, x):
    """The log-variance head before LOG_VARIANCE_CLAMP is applied."""
    return np.maximum(x @ member.w1 + member.b1, 0.0) @ member.w2[:, 1] + member.b2[1]


# 200 rows leave 160 training rows, ten full batches of 16; 203 rows leave
# 163, so the last minibatch of every epoch has 3 rows. 40 rows leave 32,
# the 2 x batch_size the trainer needs at the least; there, at five members,
# the member of seed 42 never beats its starting validation NLL and gets its
# starting parameters back.
EQUIVALENCE_CASES = {
    "full-batches": dict(rows=200),
    "short-batch": dict(rows=203),
    "fewest-rows": dict(rows=40),
    "early-stopping": dict(rows=203, patience_epochs=3, max_epochs=40, learning_rate=0.03),
    # Targets so large that the log-variance head is driven past the upper
    # clamp on some rows, where its gradient is zero, and not on others.
    "log-variance-clamp": dict(rows=203, target_scale=1e5, learning_rate=0.1),
}


def assert_clamp_engaged(member: Member, x) -> None:
    above = raw_log_variance(member, x) > LOG_VARIANCE_CLAMP[1]
    assert above.any() and not above.all()


class TestTrainerEquivalence:
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_key_reference_bit_for_bit(self, case, seed):
        settings = dict(EQUIVALENCE_CASES[case])
        x, y = noisy_linear_data(settings.pop("rows"), seed)
        y = y * settings.pop("target_scale", 1.0)
        hyper = EnsembleHyper(
            **{
                "member_count": 2,
                "hidden_size": 8,
                "batch_size": 16,
                "patience_epochs": 100,
                "max_epochs": 12,
                "learning_rate": 0.01,
                **settings,
            }
        )
        member = init_member(3, 8, seed=seed + 10)
        trained, log = train_member(member, x, y, hyper, with_log=True)
        expected, expected_log = reference_train_member(member, x, y, hyper)
        assert np.array_equal(trained.parameter_vector(), expected)
        assert log == expected_log
        if case == "early-stopping":
            assert len(log) < hyper.max_epochs  # patience ended the run
        if case == "log-variance-clamp":
            assert_clamp_engaged(trained, x)

    def test_wrong_arity_rejected_before_any_step(self, monkeypatch):
        from chaincontrib import ensemble

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(ensemble, "_loss_into", no_step)
        x, y = noisy_linear_data(200)
        with pytest.raises(ValueError, match="arity 3"):
            train_member(init_member(3, 8, seed=0), np.hstack([x, x]), y, SMALL_HYPER)


def make_actor_data(seed=0, rows=200, c=2.0):
    x, y = constant_target_data(seed=seed, rows=rows, c=c)
    ids = tuple(f"P{i}" for i in range(rows))
    dataset = ActorDataset(
        actor_id="alpha",
        part_ids=ids,
        columns=("f0", "f1", "f2"),
        features=x,
        shared_flags=(False, False, False),
    )
    return dataset, MetricSeries(part_ids=ids, values=y)


class TestTrainEnsemble:
    def test_default_hyper_needs_319_aligned_rows(self):
        # As the README states: 2 x batch_size training rows must remain
        # after the validation split, so 319 aligned rows at the defaults.
        hyper = dataclasses.replace(EnsembleHyper(), max_epochs=1)
        x, y = constant_target_data(rows=319)
        assert len(train_ensemble(x, y, hyper, base_seed=0).members) == 5
        with pytest.raises(ValueError, match="need at least 2 x batch_size = 256"):
            train_ensemble(x[:318], y[:318], hyper, base_seed=0)

    def test_members_have_distinct_seeds_and_shared_normaliser(self):
        dataset, metric = make_actor_data()
        ensemble = train_ensemble(*dataset.align(metric)[:2], SMALL_HYPER, base_seed=100)
        assert [m.rng_seed for m in ensemble.members] == [100, 101]
        assert len(ensemble.members) == 2
        assert len(ensemble.training_log) == 2
        # Validation rows are the chronological tail of the aligned join.
        assert np.array_equal(ensemble.validation_rows, dataset.features[-40:])

    def test_constant_target_all_members_converge(self):
        dataset, metric = make_actor_data()
        ensemble = train_ensemble(*dataset.align(metric)[:2], SMALL_HYPER, base_seed=20)
        rows = ensemble.validation_rows
        for member in ensemble.members:
            mu, _ = forward(member, ensemble.normaliser.transform(rows))
            assert np.all(np.abs(mu - 2.0) < 0.05)

    def test_empty_join_rejected(self):
        dataset, _ = make_actor_data()
        other = MetricSeries(part_ids=("Q1",), values=np.array([1.0]))
        with pytest.raises(ValueError, match="no rows"):
            train_ensemble(*dataset.align(other)[:2], SMALL_HYPER, base_seed=0)


LOCKSTEP_CASES = {
    **EQUIVALENCE_CASES,
    # The trainer's shared work buffer fits the larger of the kernel scratch
    # and the validation pass: here 40 validation rows against batches of 4,
    # so the validation pass sizes it...
    "validation-outnumbers-batch": dict(rows=203, batch_size=4),
    # ...and here a batch of 16 against 10 validation rows (and a short last
    # batch of one row), so the scratch sizes it.
    "batch-outnumbers-validation": dict(rows=203, validation_fraction=0.05),
}


def lockstep_case(case: str, member_count: int, seed: int):
    """Actor data and hyper for one LOCKSTEP_CASES case at M members."""
    settings = dict(LOCKSTEP_CASES[case])
    x, y = noisy_linear_data(settings.pop("rows"), seed)
    y = y * settings.pop("target_scale", 1.0)
    hyper = EnsembleHyper(
        **{
            "member_count": member_count,
            "hidden_size": 8,
            "batch_size": 16,
            "patience_epochs": 100,
            "max_epochs": 12,
            "learning_rate": 0.01,
            **settings,
        }
    )
    ids = tuple(f"P{i:04d}" for i in range(len(y)))
    dataset = ActorDataset(
        actor_id="alpha",
        part_ids=ids,
        columns=("f0", "f1", "f2"),
        features=x,
        shared_flags=(False, False, False),
    )
    return dataset, MetricSeries(part_ids=ids, values=y), hyper


class TestLockstepEquivalence:
    """train_ensemble trains its members together; each must still equal
    the reference trainer run on that member alone."""

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    @pytest.mark.parametrize("member_count", [2, 5])
    def test_members_match_reference_one_at_a_time(self, case, member_count):
        dataset, metric, hyper = lockstep_case(case, member_count, seed=member_count)
        features, targets, _ = dataset.align(metric)
        ensemble = train_ensemble(features, targets, hyper, base_seed=40)
        normalised = ensemble.normaliser.transform(features)
        for member, log in zip(ensemble.members, ensemble.training_log):
            start = init_member(3, hyper.hidden_size, seed=member.rng_seed)
            expected, expected_log = reference_train_member(start, normalised, targets, hyper)
            assert np.array_equal(member.parameter_vector(), expected)
            assert list(log) == expected_log
            if case == "log-variance-clamp":
                assert_clamp_engaged(member, normalised)
        if case == "early-stopping":
            stops = [len(log) for log in ensemble.training_log]
            assert max(stops) < hyper.max_epochs  # patience ended every run
            # Members stop at different epochs, so the live rows were compacted.
            assert len(set(stops)) > 1

    def poisoned(self):
        dataset, metric, hyper = lockstep_case("full-batches", 5, seed=0)
        values = metric.values.copy()
        values[0] = 1e160  # a training row whose squared error overflows
        return dataset, MetricSeries(part_ids=metric.part_ids, values=values), hyper

    def test_nonfinite_loss_names_a_member_seed(self):
        dataset, metric, hyper = self.poisoned()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match=r"epoch 1 \(seed 4[0-4]\)"):
                train_ensemble(*dataset.align(metric)[:2], hyper, base_seed=40)

    def test_nonfinite_loss_becomes_decline(self):
        from chaincontrib.protocol import CallForUncertainty, Decline, handle_call

        dataset, metric, hyper = self.poisoned()
        call = CallForUncertainty(
            call_id="call-000001", metric=metric, hyper=hyper, response_deadline=30.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert isinstance(handle_call(dataset, call, base_seed=40), Decline)


class TestPredict:
    """The ensemble's predictive distribution: the knowledge/data split
    that ``_decompose`` gives per row, and the total that
    ``total_uncertainty`` reports over the validation rows (here one row)."""

    def test_two_member_hand_case(self):
        ensemble = hand_ensemble(
            [constant_member(0.0, 0.0, seed=1), constant_member(2.0, 0.0, seed=2)]
        )
        (mean,), (knowledge,), (data,) = _decompose(ensemble, np.zeros((1, 3)))
        assert mean == 1.0
        assert knowledge == 1.0
        assert data == 1.0
        assert total_uncertainty(ensemble) == 2.0

    def test_three_member_data_variance_mean(self):
        ensemble = hand_ensemble(
            [
                constant_member(1.0, 0.0, seed=1),
                constant_member(1.0, np.log(2.0), seed=2),
                constant_member(1.0, np.log(3.0), seed=3),
            ]
        )
        _, (knowledge,), (data,) = _decompose(ensemble, np.zeros((1, 3)))
        assert knowledge == 0.0
        assert data == pytest.approx(2.0)
        assert total_uncertainty(ensemble) == pytest.approx(2.0)

    def test_identical_members_zero_knowledge_variance(self):
        ensemble = hand_ensemble(
            [constant_member(1.4, -0.3, seed=1), constant_member(1.4, -0.3, seed=2)]
        )
        _, (knowledge,), _ = _decompose(ensemble, np.zeros((1, 3)))
        assert knowledge == 0.0

    def test_arity_checked(self):
        members = [constant_member(0, 0, seed=1), constant_member(0, 0, seed=2)]
        with pytest.raises(ValueError, match="arity"):
            _decompose(hand_ensemble(members), np.zeros((1, 5)))
        # Rows that fit the normaliser but not the members.
        with pytest.raises(ValueError, match="arity"):
            total_uncertainty(hand_ensemble(members, width=5))

    def test_total_variance_matches_mixture_sampling(self):
        # Equal-weight mixture of N(0,1) and N(2,1): variance 2.
        ensemble = hand_ensemble(
            [constant_member(0.0, 0.0, seed=1), constant_member(2.0, 0.0, seed=2)]
        )
        total = total_uncertainty(ensemble)
        rng = np.random.default_rng(123)
        n = 1_000_000
        component = rng.integers(0, 2, size=n)
        draws = rng.normal(2.0 * component, 1.0)
        sampled = draws.var()
        assert total == pytest.approx(sampled, rel=0.01)

    def test_total_variance_within_monte_carlo_band(self):
        rng = np.random.default_rng(7)
        mus = rng.normal(size=4)
        log_vars = rng.normal(scale=0.5, size=4)
        ensemble = hand_ensemble(
            [constant_member(m, lv, seed=i) for i, (m, lv) in enumerate(zip(mus, log_vars))]
        )
        total = total_uncertainty(ensemble)
        n = 1_000_000
        component = rng.integers(0, 4, size=n)
        draws = rng.normal(mus[component], np.exp(log_vars[component] / 2.0))
        sampled_var = draws.var()
        # 3 standard errors of the sample variance via the fourth moment.
        centred = draws - draws.mean()
        fourth = np.mean(centred**4)
        se = np.sqrt((fourth - sampled_var**2) / n)
        assert abs(total - sampled_var) < 3 * se

    @given(
        mus=st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        log_vars=st.lists(st.floats(-3, 3), min_size=2, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_decomposition_identity(self, mus, log_vars):
        k = min(len(mus), len(log_vars))
        mus, log_vars = np.array(mus[:k]), np.array(log_vars[:k])
        if k < 2:
            return
        ensemble = hand_ensemble(
            [constant_member(m, lv, seed=i) for i, (m, lv) in enumerate(zip(mus, log_vars))]
        )
        _, (knowledge,), (data,) = _decompose(ensemble, np.zeros((1, 3)))
        total = total_uncertainty(ensemble)
        assert knowledge >= 0.0
        assert data > 0.0
        assert total == knowledge + data
        # Second-moment identity for the equal-weight Gaussian mixture.
        second_moment = np.mean(np.exp(log_vars) + mus**2)
        np.testing.assert_allclose(
            total,
            second_moment - np.mean(mus) ** 2,
            rtol=1e-9,
            atol=1e-12,
        )


class TestTotalUncertainty:
    def make_dataset(self, rows=10):
        ids = tuple(f"P{i}" for i in range(rows))
        rng = np.random.default_rng(0)
        return ActorDataset(
            actor_id="alpha",
            part_ids=ids,
            columns=("f0", "f1", "f2"),
            features=rng.normal(size=(rows, 3)),
            shared_flags=(False,) * 3,
        )

    def test_unit_variance_constant_ensemble_reports_one(self):
        dataset = self.make_dataset()
        ensemble = hand_ensemble(
            [constant_member(0.0, 0.0, seed=1), constant_member(0.0, 0.0, seed=2)],
            val_rows=dataset.features[-2:],
        )
        assert total_uncertainty(ensemble) == 1.0

    def test_two_member_hand_case_reports_mixture_variance(self):
        # Means 0 and 2 at unit variance: knowledge 1 plus data 1 per row.
        dataset = self.make_dataset()
        ensemble = hand_ensemble(
            [constant_member(0.0, 0.0, seed=1), constant_member(2.0, 0.0, seed=2)],
            val_rows=dataset.features[-3:],
        )
        assert total_uncertainty(ensemble) == 2.0

    def test_deterministic(self):
        dataset, metric = make_actor_data()
        ensemble = train_ensemble(*dataset.align(metric)[:2], SMALL_HYPER, base_seed=3)
        assert total_uncertainty(ensemble) == total_uncertainty(ensemble)

    def test_empty_validation_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hand_ensemble(
                [constant_member(0, 0, seed=1), constant_member(0, 0, seed=2)],
                val_rows=np.zeros((0, 3)),
            )

    def test_scores_the_held_out_tail_of_the_aligned_rows(self):
        # The report is _decompose over the last validation_fraction of the
        # rows train_ensemble was given, and nothing else, bit for bit.
        dataset, metric = make_actor_data(rows=203)
        features, targets, _ = dataset.align(metric)
        ensemble = train_ensemble(features, targets, SMALL_HYPER, base_seed=3)
        held_out = features[-max(1, int(203 * SMALL_HYPER.validation_fraction)) :]
        _, knowledge, data = _decompose(ensemble, held_out)
        assert total_uncertainty(ensemble) == float(np.mean(knowledge + data))

    def test_validation_rows_are_read_only(self):
        rows = np.ones((2, 3))
        ensemble = hand_ensemble(
            [constant_member(0, 0, seed=1), constant_member(0, 0, seed=2)],
            val_rows=rows,
        )
        rows[0, 0] = 5.0  # the caller's array stays the caller's
        assert ensemble.validation_rows[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            ensemble.validation_rows[0, 0] = 5.0


def test_breaking_the_decomposition_fails_both_oracles(monkeypatch):
    # Acceptance criterion 2 (the Monte-Carlo oracle) and the hand case
    # both read the scalar on the wire, total_uncertainty, through
    # _decompose, so one fault there fails both.
    import test_acceptance
    from chaincontrib import ensemble as module

    decompose = module._decompose

    def without_knowledge(ensemble, rows):
        mean, knowledge, data = decompose(ensemble, rows)
        return mean, np.zeros_like(knowledge), data

    monkeypatch.setattr(module, "_decompose", without_knowledge)
    with pytest.raises(AssertionError, match="criterion 2"):
        test_acceptance.test_criterion_2_total_variance_matches_sampled_mixture()
    with pytest.raises(AssertionError):
        TestTotalUncertainty().test_two_member_hand_case_reports_mixture_variance()


class TestNormaliser:
    def test_zero_variance_column_maps_to_zero(self):
        x = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        norm = Normaliser.fit(x)
        out = norm.transform(np.array([[99.0, 2.0]]))
        assert out[0, 0] == 0.0
        assert out[0, 1] == pytest.approx((2.0 - 2.0) / np.arange(5.0).std())

    def test_transform_standardises_training_data(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 5.0, size=(200, 2))
        out = Normaliser.fit(x).transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_arity_mismatch_rejected(self):
        norm = identity_normaliser(3)
        with pytest.raises(ValueError, match="arity"):
            norm.transform(np.zeros(4))


class TestEnsembleInvariants:
    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="member seed 1 appears more than once"):
            hand_ensemble([constant_member(0, 0, seed=1), constant_member(1, 0, seed=1)])

    def test_mismatched_layouts_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            hand_ensemble(
                [constant_member(0, 0, hidden=4, seed=1), constant_member(0, 0, hidden=5, seed=2)]
            )

    def test_single_member_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            hand_ensemble([constant_member(0, 0, seed=1)])
