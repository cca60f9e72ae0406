"""Protocol module: codec, transforms, actor handling, ranking, transports."""

from __future__ import annotations

import dataclasses
import json
import math
import socket
import sys
import threading
import time
from contextlib import ExitStack
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import serving
from chaincontrib import protocol
from chaincontrib.dataset import (
    NOISE_ACTOR_ID,
    ActorDataset,
    MetricSeries,
    SyntheticSpec,
    generate_synthetic,
)
from chaincontrib.ensemble import EnsembleHyper
from chaincontrib.protocol import (
    ActorOutcome,
    CallForUncertainty,
    CampaignError,
    ContributionRanking,
    DecodeError,
    Decline,
    InProcessTransport,
    LocalActor,
    MetricTransform,
    SocketTransport,
    UncertaintyResponse,
    apply_transform,
    decode_message,
    derive_seed,
    encode_message,
    handle_call,
    issue_call,
    noise_actor,
    rank_contributions,
    run_campaign,
    run_noise_baseline,
)

FAST_HYPER = EnsembleHyper(
    member_count=2,
    hidden_size=8,
    batch_size=16,
    patience_epochs=15,
    max_epochs=60,
)


def small_metric(n=3) -> MetricSeries:
    return MetricSeries(
        part_ids=tuple(f"P{i}" for i in range(n)),
        values=np.linspace(0.1, 1.0, n),
    )


def synth_actors(seed=0, rows=240, weights=(3.0, 0.5)):
    spec = SyntheticSpec(
        actor_count=len(weights),
        features_per_actor=2,
        signal_weights=weights,
        noise_std=0.5,
        row_count=rows,
        seed=seed,
    )
    datasets, metric, _ = generate_synthetic(spec)
    return datasets, metric


def example_call(metric=None, deadline=30.0) -> CallForUncertainty:
    return CallForUncertainty(
        call_id="call-000001",
        metric=metric if metric is not None else small_metric(),
        hyper=FAST_HYPER,
        response_deadline=deadline,
    )


# Hyper fields that fail validation in four different ways.
BAD_HYPER = [
    {"member_count": 1},
    {"learning_rate": True},
    {"max_epochs": "x"},
    {"hidden_size": 2.5},
]


def call_frame_with_hyper(**hyper) -> bytes:
    raw = json.loads(encode_message(example_call()).decode())
    raw["hyper"].update(hyper)
    return json.dumps(raw).encode() + b"\n"


def frame_with(message, **fields) -> bytes:
    """``message`` encoded, with some fields replaced by raw JSON values."""
    raw = json.loads(encode_message(message).decode())
    raw.update(fields)
    return json.dumps(raw).encode() + b"\n"


# JSON parses it, but no float holds it.
HUGE = int("9" * 400)
ALPHA_REPLY = UncertaintyResponse("alpha", "call-000001", 0.5)

# Frames that once escaped decode_message as another exception.
HOSTILE_FRAMES = {
    "5000-digit-integer": b'{"schema_version": ' + b"9" * 5000 + b"}\n",
    "deep-nesting": b"[" * 100_000 + b"\n",
    "huge-uncertainty": frame_with(ALPHA_REPLY, total_uncertainty=HUGE),
    "huge-deadline": frame_with(example_call(), response_deadline=HUGE),
    "huge-metric-value": frame_with(example_call(), values=[HUGE, 0.5, 1.0]),
    "huge-learning-rate": call_frame_with_hyper(learning_rate=HUGE),
    "nan-deadline": frame_with(example_call(), response_deadline=math.nan),
    "infinite-deadline": frame_with(example_call(), response_deadline=math.inf),
}


# A reply that repeats a key; plain JSON would keep the last value.
REPEATED_KEY_REPLY = (
    b'{"actor_id": "alpha", "actor_id": "beta", "call_id": "call-000001", '
    b'"kind": "response", "schema_version": 1, "total_uncertainty": 0.5}\n'
)


# Float fields of a call frame that hold something other than a finite number.
NON_NUMBER_FRAMES = {
    "string-deadline": frame_with(example_call(), response_deadline="5"),
    "boolean-deadline": frame_with(example_call(), response_deadline=True),
    "boolean-learning-rate": call_frame_with_hyper(learning_rate=True),
    "boolean-validation-fraction": call_frame_with_hyper(validation_fraction=False),
    "string-validation-fraction": call_frame_with_hyper(validation_fraction="0.2"),
    "string-metric-value": frame_with(example_call(), values=["1.5", 0.5, 1.0]),
    "boolean-metric-value": frame_with(example_call(), values=[0.1, True, 1.0]),
    "metric-values-not-a-list": frame_with(example_call(), values={"P0": 0.1}),
}

# Id fields of each kind of frame that hold something other than a JSON string.
NON_TEXT_FRAMES = {
    "integer-part-id": frame_with(example_call(), part_ids=[1, "P1", "P2"]),
    "null-part-id": frame_with(example_call(), part_ids=["P0", None, "P2"]),
    "part-ids-as-one-string": frame_with(example_call(), part_ids="abc"),
    "integer-call-id": frame_with(example_call(), call_id=1),
    "object-call-id": frame_with(ALPHA_REPLY, call_id={"a": 1}),
    "null-actor-id": frame_with(ALPHA_REPLY, actor_id=None),
    "integer-actor-id-in-a-decline": frame_with(Decline("beta", "call-000001"), actor_id=7),
}


class TestMetricTransform:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            MetricTransform(scale=0.0)

    def test_identity(self):
        series = small_metric()
        out = apply_transform(series, MetricTransform(scale=1.0, offset=0.0))
        assert out == series

    def test_affine_arithmetic(self):
        series = MetricSeries(part_ids=("a", "b"), values=np.array([1.0, 2.0]))
        out = apply_transform(series, MetricTransform(scale=2.0, offset=-1.0))
        np.testing.assert_array_equal(out.values, [1.0, 3.0])
        assert out.part_ids == series.part_ids

    def test_unit_spread_is_the_standardising_map(self):
        values = np.array([1.0, 2.0, 4.0, 9.0])
        series = MetricSeries(part_ids=("a", "b", "c", "d"), values=values)
        spread, center = float(np.std(values)), float(np.mean(values))
        expected = MetricTransform(scale=1.0 / spread, offset=-center / spread)
        assert MetricTransform.unit_spread(series) == expected

    def test_unit_spread_rejects_a_constant_metric(self):
        series = MetricSeries(part_ids=("a", "b"), values=np.array([3.0, 3.0]))
        with pytest.raises(ValueError, match="metric is constant; nothing to estimate"):
            MetricTransform.unit_spread(series)


class TestCoordinator:
    def test_call_carries_metric_verbatim_without_transform(self):
        metric = small_metric(100)
        call = issue_call(metric, None, FAST_HYPER, deadline=5.0)
        assert call.metric == metric

    def test_standardising_transform(self):
        rng = np.random.default_rng(1)
        values = rng.normal(5.0, 3.0, size=200)
        metric = MetricSeries(
            part_ids=tuple(f"P{i}" for i in range(200)), values=values
        )
        call = issue_call(metric, MetricTransform.unit_spread(metric), FAST_HYPER, 5.0)
        assert call.metric.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert call.metric.values.std() == pytest.approx(1.0)

    def test_empty_metric_rejected(self):
        empty = MetricSeries(part_ids=(), values=np.array([]))
        with pytest.raises(ValueError, match="empty"):
            issue_call(empty, None, FAST_HYPER, 5.0)


class TestCodec:
    def test_call_round_trip(self):
        call = example_call(
            MetricSeries(
                part_ids=("a", "b", "c"),
                values=np.array([1.0 / 3.0, 2.5e-17, -1.7]),
            )
        )
        assert decode_message(encode_message(call)) == call

    def test_response_round_trip(self):
        msg = UncertaintyResponse(
            actor_id="alpha", call_id="call-000009", total_uncertainty=0.1234567890123
        )
        assert decode_message(encode_message(msg)) == msg

    def test_decline_round_trip(self):
        msg = Decline(actor_id="beta", call_id="call-000002")
        assert decode_message(encode_message(msg)) == msg

    def test_empty_input_is_truncated(self):
        with pytest.raises(DecodeError) as err:
            decode_message(b"")
        assert err.value.reason == "truncated"

    def test_missing_newline_is_truncated(self):
        frame = encode_message(Decline("a", "c")).rstrip(b"\n")
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "truncated"

    def test_invalid_json_is_malformed(self):
        with pytest.raises(DecodeError) as err:
            decode_message(b"{nope\n")
        assert err.value.reason == "malformed"

    def test_unknown_kind_rejected(self):
        frame = json.dumps(
            {"kind": "gossip", "schema_version": 1, "call_id": "c"}
        ).encode() + b"\n"
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "unknown-kind"

    def test_version_mismatch_rejected(self):
        # Only the JSON integer 1 is version 1; True and 1.0 equal 1 in Python.
        for version in (99, 0, True, 1.0, "1", None, [1]):
            frame = json.dumps(
                {"kind": "decline", "schema_version": version, "call_id": "c", "actor_id": "a"}
            ).encode() + b"\n"
            with pytest.raises(DecodeError) as err:
                decode_message(frame)
            assert err.value.reason == "version-mismatch"
            assert str(err.value) == f"version-mismatch: got {version!r}, speak 1"

    def test_encoded_bytes_are_json_with_sorted_keys(self):
        assert encode_message(Decline("a", "c")) == (
            b'{"actor_id": "a", "call_id": "c", "kind": "decline", "schema_version": 1}\n'
        )
        assert encode_message(UncertaintyResponse("a", "c", 0.25)) == (
            b'{"actor_id": "a", "call_id": "c", "kind": "response", '
            b'"schema_version": 1, "total_uncertainty": 0.25}\n'
        )
        raw = json.loads(encode_message(example_call()))
        assert list(raw) == sorted(raw) and raw["kind"] == "call"
        assert set(raw) == {
            "call_id", "hyper", "kind", "part_ids", "response_deadline", "schema_version", "values"
        }

    def test_repeated_key_is_malformed(self):
        call = encode_message(example_call())
        nested = call.replace(b'"hyper": {', b'"hyper": {"batch_size": 64, ', 1)
        assert nested != call
        for frame, key in ((REPEATED_KEY_REPLY, "actor_id"), (nested, "batch_size")):
            with pytest.raises(DecodeError) as err:
                decode_message(frame)
            assert err.value.reason == "malformed"
            assert str(err.value) == f"malformed: key {key!r} appears more than once"

    def test_unknown_fields_ignored(self):
        raw = json.loads(encode_message(Decline("a", "c")).decode())
        raw["future_extension"] = {"colour": "blue"}
        frame = json.dumps(raw).encode() + b"\n"
        assert decode_message(frame) == Decline("a", "c")

    def test_vector_valued_uncertainty_rejected(self):
        frame = json.dumps(
            {
                "kind": "response",
                "schema_version": 1,
                "call_id": "c",
                "actor_id": "a",
                "total_uncertainty": [1.0, 2.0],
            }
        ).encode() + b"\n"
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "malformed"

    def test_missing_field_is_malformed(self):
        frame = json.dumps(
            {"kind": "response", "schema_version": 1, "call_id": "c", "actor_id": "a"}
        ).encode() + b"\n"
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "malformed"

    @pytest.mark.parametrize("hyper", BAD_HYPER, ids=lambda h: next(iter(h)))
    def test_invalid_hyper_is_malformed(self, hyper):
        with pytest.raises(DecodeError) as err:
            decode_message(call_frame_with_hyper(**hyper))
        assert err.value.reason == "malformed"

    @pytest.mark.parametrize(
        "dropped",
        [{"activation": "relu"}, {"log_variance_clamp": [-10.0, 10.0]}, {"dropout_rate": 0.5}],
        ids=lambda d: next(iter(d)),
    )
    def test_hyper_from_older_peer_decodes(self, dropped):
        # Frames from peers that still send a since-fixed setting decode.
        frame = call_frame_with_hyper(**dropped)
        assert decode_message(frame) == example_call()

    def test_metric_floats_survive_exactly(self):
        values = np.array([0.1, 1.0 / 3.0, 7.000000000000001e-12])
        call = example_call(MetricSeries(part_ids=("a", "b", "c"), values=values))
        back = decode_message(encode_message(call))
        np.testing.assert_array_equal(back.metric.values, values)

    @pytest.mark.parametrize("frame", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
    def test_hostile_frame_is_malformed(self, frame):
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "malformed"

    @pytest.mark.parametrize("frame", NON_NUMBER_FRAMES.values(), ids=NON_NUMBER_FRAMES.keys())
    def test_float_field_must_hold_a_number(self, frame):
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "malformed"

    @pytest.mark.parametrize("frame", NON_TEXT_FRAMES.values(), ids=NON_TEXT_FRAMES.keys())
    def test_id_field_must_hold_a_string(self, frame):
        with pytest.raises(DecodeError) as err:
            decode_message(frame)
        assert err.value.reason == "malformed"

    def test_integer_deadline_decodes_as_a_float(self):
        call = decode_message(frame_with(example_call(), response_deadline=30))
        assert call == example_call(deadline=30.0)
        assert type(call.response_deadline) is float

    @pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan, math.inf])
    def test_call_needs_a_finite_positive_deadline(self, deadline):
        with pytest.raises(ValueError, match="positive and finite"):
            example_call(deadline=deadline)

    @pytest.mark.parametrize("deadline", [threading.TIMEOUT_MAX * 1.001, 1e300])
    def test_deadline_beyond_a_socket_timeout_is_rejected(self, deadline):
        with pytest.raises(ValueError, match="at most"):
            example_call(deadline=deadline)
        with pytest.raises(DecodeError) as err:
            decode_message(frame_with(example_call(), response_deadline=deadline))
        assert err.value.reason == "malformed"


# Integers up to 4 001 digits: json.dumps refuses longer ones.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**300, 10**4000)
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Most field checks are on scalars, so draw one half the time.
FIELD_VALUES = SCALARS | JSON_VALUES
VALID_FRAMES = [encode_message(m) for m in (example_call(), ALPHA_REPLY, Decline("alpha", "c"))]
REAL_KEYS = sorted(set().union(*(json.loads(frame) for frame in VALID_FRAMES)))
HYPER_KEYS = sorted(f.name for f in dataclasses.fields(EnsembleHyper))


@st.composite
def near_frames(draw) -> bytes:
    """A valid frame with one or two of its fields, hyper fields or metric
    values replaced by arbitrary JSON values, and maybe one field dropped."""
    frame = json.loads(draw(st.sampled_from(VALID_FRAMES)))
    sites = [(frame, key) for key in frame]
    if frame["kind"] == "call":
        sites += [(frame["hyper"], key) for key in HYPER_KEYS]
        sites += [(frame["values"], i) for i in range(len(frame["values"]))]
    for _ in range(draw(st.integers(1, 2))):
        owner, key = draw(st.sampled_from(sites))
        owner[key] = draw(FIELD_VALUES)
    for key in draw(st.lists(st.sampled_from(REAL_KEYS), max_size=1)):
        frame.pop(key, None)
    return json.dumps(frame).encode() + b"\n"


class TestCodecFuzz:
    """decode_message returns a message or raises DecodeError, never more."""

    @staticmethod
    def decodes_or_rejects(data: bytes) -> None:
        try:
            message = decode_message(data)
        except DecodeError:
            return
        assert isinstance(message, (CallForUncertainty, UncertaintyResponse, Decline))

    @given(
        data=st.binary(max_size=512)
        | st.binary(max_size=512).map(lambda b: b + b"\n")
        | JSON_VALUES.map(lambda v: json.dumps(v).encode() + b"\n")
        # Deep nesting and long digit runs, which the decoder must bound.
        | st.builds(
            lambda piece, n: piece * n + b"\n",
            st.sampled_from([b"[", b'{"a":', b"9"]),
            st.integers(1, 200_000),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes(self, data):
        self.decodes_or_rejects(data)

    @given(data=near_frames())
    @settings(max_examples=500, deadline=None)
    def test_real_keys_with_arbitrary_values(self, data):
        self.decodes_or_rejects(data)


class TestHandleCall:
    def test_zero_overlap_declines(self):
        datasets, _ = synth_actors()
        foreign = MetricSeries(
            part_ids=("Q1", "Q2"), values=np.array([0.1, 0.2])
        )
        call = example_call(foreign)
        result = handle_call(datasets[0], call, base_seed=1)
        assert isinstance(result, Decline)
        assert result.actor_id == datasets[0].actor_id
        assert result.call_id == call.call_id

    def test_overlap_below_minimum_declines(self):
        datasets, metric = synth_actors(rows=240)
        call = example_call(metric)
        result = handle_call(datasets[0], call, base_seed=1, min_overlap=1000)
        assert isinstance(result, Decline)

    def test_empty_overlap_declines_without_a_minimum(self):
        datasets, _ = synth_actors()
        foreign = MetricSeries(part_ids=("Q1", "Q2"), values=np.array([0.1, 0.2]))
        result = handle_call(datasets[0], example_call(foreign), base_seed=1, min_overlap=0)
        assert result == Decline(datasets[0].actor_id, "call-000001")

    @pytest.mark.parametrize("min_overlap", [0, 1000], ids=["answers", "declines"])
    def test_matches_part_ids_once_per_call(self, monkeypatch, min_overlap):
        datasets, metric = synth_actors()
        align = ActorDataset.align
        calls = []

        def counted(dataset, series):
            calls.append(dataset.actor_id)
            return align(dataset, series)

        monkeypatch.setattr(ActorDataset, "align", counted)
        call = CallForUncertainty("call-000001", metric, FAST_HYPER, 30.0)
        handle_call(datasets[0], call, base_seed=1, min_overlap=min_overlap)
        assert calls == [datasets[0].actor_id]

    def test_informative_actor_returns_positive_scalar(self):
        datasets, metric = synth_actors()
        call = example_call(metric)
        result = handle_call(datasets[0], call, base_seed=1)
        assert isinstance(result, UncertaintyResponse)
        assert np.isfinite(result.total_uncertainty)
        assert result.total_uncertainty > 0.0
        assert result.call_id == call.call_id

    def test_deterministic_per_seed(self):
        datasets, metric = synth_actors()
        call = example_call(metric)
        a = handle_call(datasets[0], call, base_seed=7)
        b = handle_call(datasets[0], call, base_seed=7)
        assert a == b

    def test_training_failure_becomes_decline(self):
        datasets, metric = synth_actors(rows=240)
        bad_hyper = EnsembleHyper(
            member_count=2,
            hidden_size=8,
            batch_size=4096,  # cannot satisfy the 2-batches precondition
            patience_epochs=5,
            max_epochs=10,
        )
        call = CallForUncertainty(
            call_id="call-000001",
            metric=metric,
            hyper=bad_hyper,
            response_deadline=30.0,
        )
        result = handle_call(datasets[0], call, base_seed=1)
        assert isinstance(result, Decline)


class TestDeriveSeed:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(1, "alpha") == derive_seed(1, "alpha")
        assert derive_seed(1, "alpha") != derive_seed(1, "beta")
        assert derive_seed(1, "alpha") != derive_seed(2, "alpha")


class TestNoiseBaseline:
    def test_tagged_with_reserved_actor_id(self):
        _, metric = synth_actors()
        call = example_call(metric)
        response = run_noise_baseline(call, 3, feature_count=2)
        assert response.actor_id == NOISE_ACTOR_ID
        assert response.total_uncertainty > 0.0

    def test_deterministic(self):
        _, metric = synth_actors()
        call = example_call(metric)
        a = run_noise_baseline(call, 3, feature_count=2)
        b = run_noise_baseline(call, 3, feature_count=2)
        assert a == b

    def test_trains_the_actor_that_noise_actor_builds(self):
        # run-central pools noise_actor(metric, seed); the floor must come
        # from that very actor, its members seeded from the derived seed.
        _, metric = synth_actors()
        call = example_call(metric)
        actor = noise_actor(metric, 3, feature_count=2)
        assert actor.actor_id == NOISE_ACTOR_ID
        assert actor.part_ids == metric.part_ids
        assert actor.columns == ("noise0", "noise1")
        expected = handle_call(actor, call, base_seed=derive_seed(3, NOISE_ACTOR_ID))
        assert run_noise_baseline(call, 3, feature_count=2) == expected

    def test_noise_actor_follows_the_seed(self):
        _, metric = synth_actors()
        same = noise_actor(metric, 3).features, noise_actor(metric, 3).features
        np.testing.assert_array_equal(*same)
        assert not np.array_equal(same[0], noise_actor(metric, 4).features)

    def test_noise_exceeds_near_perfect_actor_in_median(self):
        # One actor sees the target itself plus tiny jitter; over 10 seeds
        # the noise baseline's uncertainty must be larger in the median.
        gaps = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 240
            ids = tuple(f"P{i}" for i in range(n))
            y = rng.normal(0.0, 1.0, n)
            informative = ActorDataset(
                actor_id="oracle",
                part_ids=ids,
                columns=("leak", "junk"),
                features=np.column_stack(
                    [y + rng.normal(0.0, 0.01, n), rng.normal(size=n)]
                ),
                shared_flags=(False, False),
            )
            metric = MetricSeries(part_ids=ids, values=y)
            call = example_call(metric)
            actor_reply = handle_call(informative, call, base_seed=seed)
            noise_reply = run_noise_baseline(call, seed, feature_count=2)
            assert isinstance(actor_reply, UncertaintyResponse)
            gaps.append(noise_reply.total_uncertainty - actor_reply.total_uncertainty)
        assert np.median(gaps) > 0.0


def response(actor_id: str, value: float, call_id="call-000001") -> UncertaintyResponse:
    return UncertaintyResponse(
        actor_id=actor_id, call_id=call_id, total_uncertainty=value
    )


class TestRankContributions:
    def test_ascending_order_with_noise_included(self):
        ranking = rank_contributions(
            [response("A", 0.5), response("B", 1.0)],
            noise=response(NOISE_ACTOR_ID, 2.0),
        )
        assert ranking.actor_order() == ("A", "B", NOISE_ACTOR_ID)
        assert [e.estimated_rank for e in ranking.entries] == [1, 2, 3]
        assert ranking.noise_floor == 2.0
        assert [e.below_noise_floor for e in ranking.entries] == [False, False, False]

    def test_actor_at_or_above_floor_is_flagged(self):
        ranking = rank_contributions(
            [response("A", 2.5)], noise=response(NOISE_ACTOR_ID, 2.0)
        )
        assert ranking.entries[1].actor_id == "A"
        assert ranking.entries[1].below_noise_floor
        exact = rank_contributions(
            [response("A", 2.0)], noise=response(NOISE_ACTOR_ID, 2.0)
        )
        assert exact.entries[0].actor_id == "A"
        assert exact.entries[0].below_noise_floor

    @pytest.mark.parametrize("slack", [0.0, -1.0, math.nan])
    def test_slack_must_be_a_positive_number(self, slack):
        with pytest.raises(ValueError, match="slack must be positive"):
            rank_contributions(
                [response("A", 2.5)], noise=response(NOISE_ACTOR_ID, 2.0), slack=slack
            )

    def test_slack_multiplier_loosens_the_floor(self):
        ranking = rank_contributions(
            [response("A", 2.5)],
            noise=response(NOISE_ACTOR_ID, 2.0),
            slack=1.5,
        )
        assert ranking.entries[1].actor_id == "A"
        assert not ranking.entries[1].below_noise_floor

    def test_ties_break_lexicographically(self):
        ranking = rank_contributions(
            [response("B", 1.0), response("A", 1.0)],
            noise=response(NOISE_ACTOR_ID, 2.0),
        )
        assert ranking.actor_order() == ("A", "B", NOISE_ACTOR_ID)

    def test_mixed_call_ids_rejected(self):
        with pytest.raises(ValueError, match="call_id"):
            rank_contributions(
                [response("A", 1.0, call_id="call-000001")],
                noise=response(NOISE_ACTOR_ID, 2.0, call_id="call-000002"),
            )

    def test_no_responses_rejected(self):
        with pytest.raises(CampaignError):
            rank_contributions([], noise=response(NOISE_ACTOR_ID, 2.0))

    def test_duplicate_actor_ids_rejected(self):
        with pytest.raises(ValueError, match="actor_id 'A' appears more than once"):
            rank_contributions(
                [response("A", 1.0), response("A", 1.5)],
                noise=response(NOISE_ACTOR_ID, 2.0),
            )

    @given(
        values=st.lists(
            st.floats(0.01, 100.0), min_size=2, max_size=8, unique=True
        )
    )
    @example(values=[100.0, 99.99999999999999])  # log1p rounds both to one float
    @settings(max_examples=60, deadline=None)
    def test_order_invariant_under_monotone_rescoring(self, values):
        actors = [response(f"actor-{i}", v) for i, v in enumerate(values[:-1])]
        noise = response(NOISE_ACTOR_ID, values[-1])
        plain = rank_contributions(actors, noise)
        warped = rank_contributions(
            [
                response(r.actor_id, float(np.log1p(r.total_uncertainty)))
                for r in actors
            ],
            response(NOISE_ACTOR_ID, float(np.log1p(noise.total_uncertainty))),
        )
        # log is strictly monotone on the positive reals; in floating point
        # log1p never reverses two values but may round neighbours (100.0
        # and 99.99999999999999) to one, and such a tie breaks by actor id.
        warped_value = {e.actor_id: e.total_uncertainty for e in warped.entries}
        steps = [warped_value[a] for a in plain.actor_order()]
        assert steps == sorted(steps)
        for a, b, value in zip(plain.actor_order(), warped.actor_order(), steps):
            assert a == b or steps.count(value) > 1

    def test_csv_is_byte_deterministic(self, tmp_path):
        ranking = rank_contributions(
            [response("A", 0.5), response("B", 1.0)],
            noise=response(NOISE_ACTOR_ID, 2.0),
        )
        ranking.to_csv(tmp_path / "one.csv")
        ranking.to_csv(tmp_path / "two.csv")
        one = (tmp_path / "one.csv").read_bytes()
        assert one == (tmp_path / "two.csv").read_bytes()
        assert b"rank,actor_id,total_uncertainty,below_noise_floor" in one

    def test_csv_round_trip(self, tmp_path):
        ranking = rank_contributions(
            [response("A", 0.1 + 0.2), response("B", 3.0), response("C", 1.0 / 3.0)],
            noise=response(NOISE_ACTOR_ID, 2.0),
        )
        ranking.to_csv(tmp_path / "ranking.csv")
        assert ContributionRanking.from_csv(tmp_path / "ranking.csv") == ranking

    def test_csv_with_a_byte_order_mark_reads_back(self, tmp_path):
        ranking = rank_contributions(
            [response("A", 0.1 + 0.2), response("B", 3.0)],
            noise=response(NOISE_ACTOR_ID, 2.0),
        )
        path = tmp_path / "ranking.csv"
        ranking.to_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ContributionRanking.from_csv(path) == ranking

    @pytest.mark.parametrize("flag", ["True", "1", "", "yes"])
    def test_csv_reader_rejects_non_canonical_flags(self, tmp_path, flag):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            f"1,A,0.5,false\n2,B,1.0,{flag}\n"
        )
        with pytest.raises(ValueError, match="below_noise_floor"):
            ContributionRanking.from_csv(path)

    @pytest.mark.parametrize(
        ("row", "fields"), [("2,B,1.0,false,extra", 5), ("2,B,1.0", 3)], ids=["long", "short"]
    )
    def test_csv_reader_rejects_a_row_of_the_wrong_width(self, tmp_path, row, fields):
        path = tmp_path / "ranking.csv"
        path.write_text(f"rank,actor_id,total_uncertainty,below_noise_floor\n1,A,0.5,false\n{row}\n")
        with pytest.raises(ValueError) as caught:
            ContributionRanking.from_csv(path)
        assert str(caught.value) == f"{path}: row 1 has {fields} fields, expected 4"

    def test_csv_reader_rejects_an_empty_actor_id(self, tmp_path):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            f"1,A,0.5,false\n2,,1.0,false\n3,{NOISE_ACTOR_ID},2.0,false\n"
        )
        with pytest.raises(ValueError) as caught:
            ContributionRanking.from_csv(path)
        assert str(caught.value) == f"{path}: row 1 has an empty actor_id"

    def test_csv_reader_rejects_a_flagged_noise_actor(self, tmp_path):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            f"1,A,0.5,false\n2,{NOISE_ACTOR_ID},1.0,true\n"
        )
        with pytest.raises(ValueError) as caught:
            ContributionRanking.from_csv(path)
        assert str(caught.value) == f"{path}: {NOISE_ACTOR_ID} is flagged below its own noise floor"

    def test_csv_reader_rejects_an_actor_ranked_twice(self, tmp_path):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            f"1,A,0.5,false\n2,{NOISE_ACTOR_ID},1.0,false\n3,A,9.0,true\n"
        )
        with pytest.raises(ValueError, match="actor_id 'A' appears more than once") as caught:
            ContributionRanking.from_csv(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5.0"])
    def test_csv_reader_rejects_an_uncertainty_below_zero_or_not_finite(
        self, tmp_path, value
    ):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            f"1,A,{value},false\n2,{NOISE_ACTOR_ID},1.0,false\n"
        )
        with pytest.raises(ValueError, match="not finite and non-negative") as caught:
            ContributionRanking.from_csv(path)
        assert str(path) in str(caught.value)


    def test_csv_reader_names_the_file_for_a_non_integer_rank(self, tmp_path):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            f"1,a,0.5,false\nx,b,1.0,false\n3,{NOISE_ACTOR_ID},2.0,false\n"
        )
        with pytest.raises(ValueError, match="not a number") as caught:
            ContributionRanking.from_csv(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "rows",
        [
            ["1,a,0.5", "1,b,1.0", f"7,{NOISE_ACTOR_ID},2.0"],  # repeated and skipped
            ["2,a,0.5", "3,b,1.0", f"4,{NOISE_ACTOR_ID},2.0"],  # not from 1
            ["1,a,1.0", "2,b,0.5", f"3,{NOISE_ACTOR_ID},2.0"],  # against the uncertainty
            ["1,b,0.5", "2,a,0.5", f"3,{NOISE_ACTOR_ID},2.0"],  # tie not broken by id
        ],
    )
    def test_csv_reader_rejects_ranks_out_of_the_ranking_order(self, tmp_path, rows):
        path = tmp_path / "ranking.csv"
        path.write_text(
            "rank,actor_id,total_uncertainty,below_noise_floor\n"
            + "".join(f"{row},false\n" for row in rows)
        )
        with pytest.raises(ValueError, match=r"do not run 1\.\.3") as caught:
            ContributionRanking.from_csv(path)
        assert str(path) in str(caught.value)

    def test_csv_round_trip_with_tied_uncertainties(self, tmp_path):
        ranking = rank_contributions(
            [response("B", 0.5), response("A", 0.5), response("C", 2.0)],
            noise=response(NOISE_ACTOR_ID, 2.0),
        )
        assert ranking.actor_order() == ("A", "B", "C", NOISE_ACTOR_ID)
        ranking.to_csv(tmp_path / "ranking.csv")
        assert ContributionRanking.from_csv(tmp_path / "ranking.csv") == ranking


class TestInProcessCampaign:
    def test_ranking_with_one_decliner(self):
        datasets, metric = synth_actors(seed=5, weights=(3.0, 2.0, 0.5))
        actors = [LocalActor(dataset=d, base_seed=11) for d in datasets]
        actors[1].always_decline = True
        transport = InProcessTransport(actors)
        ranking, log = run_campaign(
            transport, metric, None, FAST_HYPER, base_seed=11, noise_feature_count=2
        )
        ranked = ranking.actor_order()
        assert len(ranked) == 3  # two participants + noise
        assert datasets[1].actor_id not in ranked
        assert NOISE_ACTOR_ID in ranked
        assert log["declines"] == [datasets[1].actor_id]
        assert log["timeouts"] == []

    def test_all_decline_is_an_error(self):
        datasets, metric = synth_actors()
        actors = [
            LocalActor(dataset=d, base_seed=1, always_decline=True) for d in datasets
        ]
        with pytest.raises(CampaignError, match="declined"):
            run_campaign(
                InProcessTransport(actors), metric, None, FAST_HYPER, base_seed=1
            )

    def test_arrival_order_cannot_matter(self):
        datasets, metric = synth_actors(seed=2)
        forward = InProcessTransport(
            [LocalActor(dataset=d, base_seed=4) for d in datasets]
        )
        backward = InProcessTransport(
            [LocalActor(dataset=d, base_seed=4) for d in reversed(datasets)]
        )
        rank_f, log_f = run_campaign(
            forward, metric, None, FAST_HYPER, base_seed=4, noise_feature_count=2
        )
        rank_b, log_b = run_campaign(
            backward, metric, None, FAST_HYPER, base_seed=4, noise_feature_count=2
        )
        assert rank_f == rank_b
        assert log_f == log_b

    def test_membership_of_others_cannot_matter(self):
        datasets, metric = synth_actors(seed=3)
        both = InProcessTransport(
            [LocalActor(dataset=d, base_seed=9) for d in datasets]
        )
        alone = InProcessTransport([LocalActor(dataset=datasets[0], base_seed=9)])
        rank_both, _ = run_campaign(
            both, metric, None, FAST_HYPER, base_seed=9, noise_feature_count=2
        )
        rank_alone, _ = run_campaign(
            alone, metric, None, FAST_HYPER, base_seed=9, noise_feature_count=2
        )
        actor = datasets[0].actor_id
        assert rank_both.uncertainty_of(actor) == rank_alone.uncertainty_of(actor)
        assert rank_both.noise_floor == rank_alone.noise_floor

    @pytest.mark.parametrize(
        "reply",
        [Decline("alpha", "call-999999"), UncertaintyResponse("alpha", "call-999999", 1.0)],
        ids=["decline", "response"],
    )
    def test_reply_to_another_call_rejected(self, reply):
        class StaleTransport:
            def request(self, call, local):
                # The stale reply is refused before the noise floor is read.
                return [ActorOutcome(peer="alpha", message=reply)], None

        with pytest.raises(CampaignError, match="different call"):
            run_campaign(StaleTransport(), small_metric(), None, FAST_HYPER, base_seed=1)

    @pytest.mark.parametrize(
        "bad",
        [
            Decline("omega", "call-999999"),
            UncertaintyResponse("beta", protocol.CALL_ID, 0.7),
            Decline(NOISE_ACTOR_ID, protocol.CALL_ID),
        ],
        ids=["another-call", "reused-actor-id", "noise-actor-id"],
    )
    def test_failing_reply_carries_the_log_read_so_far(self, bad):
        outcomes = [
            ActorOutcome(peer="p1", message=Decline("zeta", protocol.CALL_ID)),
            ActorOutcome(peer="p2", message=None, detail="timed out"),
            ActorOutcome(peer="p3", message=Decline("alpha", protocol.CALL_ID)),
            ActorOutcome(peer="p4", message=UncertaintyResponse("beta", protocol.CALL_ID, 0.5)),
            ActorOutcome(peer="p5", message=bad),
        ]

        class FakeTransport:
            def request(self, call, local):
                return outcomes, None

        with pytest.raises(CampaignError, match="reply from p5") as err:
            run_campaign(FakeTransport(), small_metric(), None, FAST_HYPER, base_seed=1)
        # The keys of the log of a campaign that every actor declined.
        assert err.value.log == {
            "call_id": protocol.CALL_ID,
            "transformed": False,
            "responses": [],
            "declines": ["alpha", "zeta"],
            "timeouts": [{"peer": "p2", "detail": "timed out"}],
        }

    def test_two_actors_answering_as_one_fail_the_campaign(self):
        datasets, metric = synth_actors(seed=2)
        twins = InProcessTransport(
            [LocalActor(dataset=datasets[0], base_seed=4) for _ in range(2)]
        )
        with pytest.raises(CampaignError, match=repr(datasets[0].actor_id)):
            run_campaign(twins, metric, None, FAST_HYPER, base_seed=4, noise_feature_count=2)

    def test_actor_answering_as_the_noise_baseline_fails_the_campaign(self):
        datasets, metric = synth_actors(seed=2)
        impostor = dataclasses.replace(datasets[0], actor_id=NOISE_ACTOR_ID)
        transport = InProcessTransport(
            [LocalActor(dataset=d, base_seed=4) for d in (impostor, datasets[1])]
        )
        with pytest.raises(CampaignError, match=repr(NOISE_ACTOR_ID)):
            run_campaign(
                transport, metric, None, FAST_HYPER, base_seed=4, noise_feature_count=2
            )

    def test_bad_reply_counts_as_a_timeout(self):
        call = example_call()
        liars = [
            SimpleNamespace(dataset=SimpleNamespace(actor_id=name), respond=respond)
            for name, respond in [
                ("garbage", lambda frame: b"not a frame\n"),
                ("echo", lambda frame: frame),
            ]
        ]
        outcomes, _ = InProcessTransport(liars).request(call, lambda: None)
        assert [(o.peer, o.message) for o in outcomes] == [("garbage", None), ("echo", None)]
        assert outcomes[0].detail.startswith("malformed")
        assert outcomes[1].detail == "non-reply frame"

    def test_failure_inside_an_actor_propagates(self):
        def broken(frame):
            raise RuntimeError("actor blew up")

        liar = SimpleNamespace(dataset=SimpleNamespace(actor_id="alpha"), respond=broken)
        with pytest.raises(RuntimeError, match="blew up"):
            InProcessTransport([liar]).request(example_call(), lambda: None)

    def test_transcript_privacy_surface(self):
        datasets, metric = synth_actors(seed=1, weights=(3.0, 1.0))
        actors = [LocalActor(dataset=d, base_seed=2) for d in datasets]
        actors.append(
            LocalActor(dataset=datasets[1], base_seed=2, always_decline=True)
        )
        # Give the decliner a distinct id so the transcript is per-actor.
        decliner = ActorDataset(
            actor_id="gamma",
            part_ids=datasets[1].part_ids,
            columns=datasets[1].columns,
            features=datasets[1].features,
            shared_flags=datasets[1].shared_flags,
        )
        actors[2] = LocalActor(dataset=decliner, base_seed=2, always_decline=True)
        transport = InProcessTransport(actors)
        run_campaign(
            transport, metric, None, FAST_HYPER, base_seed=2, noise_feature_count=2
        )
        sent = [t for t in transport.transcript if t.direction == "sent"]
        received = [t for t in transport.transcript if t.direction == "received"]
        assert len(sent) == 3 and len(received) == 3
        scalar_frames = 0
        for entry in received:
            frame = json.loads(entry.data.decode())
            # No vector-valued payload may ever leave an actor.
            assert all(not isinstance(v, (list, dict)) for v in frame.values())
            if frame["kind"] == "response":
                scalar_frames += 1
        assert scalar_frames == 2  # one scalar per participating actor

    # Hyper for the retraining-based transform properties: small ensembles
    # but trained to convergence, which is what the properties depend on.
    RESCALE_HYPER = EnsembleHyper(
        member_count=3,
        hidden_size=16,
        batch_size=32,
        patience_epochs=40,
        max_epochs=250,
        learning_rate=1e-2,
    )

    def test_transform_rescale_keeps_ranking(self):
        # Retraining on an affinely rescaled target is not exactly
        # equivariant, so this is a statistical property over seeds: two
        # coordinators sharing differently rescaled versions of the same
        # metric should agree on the ranking in at least 9 of 10 seeds.
        agree = 0
        for seed in range(10):
            datasets, metric = synth_actors(
                seed=100 + seed, rows=600, weights=(3.0, 2.0)
            )
            sd = float(metric.values.std())
            base = MetricTransform(scale=1.0 / sd, offset=0.0)
            rescaled = MetricTransform(scale=0.5 / sd, offset=1.0)
            orders = []
            for transform in (base, rescaled):
                ranking, _ = run_campaign(
                    InProcessTransport(
                        [LocalActor(dataset=d, base_seed=seed) for d in datasets]
                    ),
                    metric,
                    transform,
                    self.RESCALE_HYPER,
                    base_seed=seed,
                    noise_feature_count=2,
                )
                orders.append(ranking.actor_order())
            if orders[0] == orders[1]:
                agree += 1
        assert agree >= 9

    def test_transform_rescales_reported_uncertainty(self):
        # Halving the metric scale should quarter reported variances,
        # up to retraining noise; check the median ratio over seeds.
        ratios = []
        for seed in range(5):
            datasets, metric = synth_actors(
                seed=200 + seed, rows=600, weights=(3.0, 2.0)
            )
            sd = float(metric.values.std())
            actor = datasets[0]
            call_base = issue_call(
                metric, MetricTransform(scale=1.0 / sd), self.RESCALE_HYPER, 30.0
            )
            call_half = issue_call(
                metric, MetricTransform(scale=0.5 / sd), self.RESCALE_HYPER, 30.0
            )
            base = handle_call(actor, call_base, base_seed=seed)
            half = handle_call(actor, call_half, base_seed=seed)
            ratios.append(half.total_uncertainty / base.total_uncertainty)
        assert 0.15 < float(np.median(ratios)) < 0.4


@pytest.mark.parametrize("route", ["in-process", "sockets"])
def test_noise_failure_outranks_declines(route):
    datasets, _ = synth_actors()
    # Fewer parts than the default overlap, so the noise actor declines too.
    metric = small_metric()
    with ExitStack() as stack:
        if route == "in-process":
            transport = InProcessTransport(
                [LocalActor(dataset=d, base_seed=1, always_decline=True) for d in datasets]
            )
        else:
            servers = [
                stack.enter_context(
                    serving(LocalActor(dataset=d, base_seed=1, always_decline=True))
                )
                for d in datasets
            ]
            transport = SocketTransport([s.address for s in servers])
        threads = threading.active_count()
        with pytest.raises(CampaignError, match="noise baseline"):
            run_campaign(transport, metric, None, FAST_HYPER, base_seed=1)
        assert threading.active_count() == threads
    received = [t for t in transport.transcript if t.direction == "received"]
    assert len(received) == len(datasets)


def reply_once(listener: socket.socket, reply: bytes) -> None:
    """Accept one connection, read its frame and send ``reply``."""
    conn, _ = listener.accept()
    with conn, conn.makefile("rb") as stream:
        stream.readline()
        conn.sendall(reply)


@pytest.mark.parametrize("route", ["in-process", "sockets"])
def test_hostile_reply_counts_as_a_timeout(route):
    datasets, metric = synth_actors(seed=8, weights=(3.0, 1.0))
    honest = LocalActor(dataset=datasets[0], base_seed=6)
    hostile = HOSTILE_FRAMES["huge-uncertainty"]
    with ExitStack() as stack:
        if route == "in-process":
            liar = SimpleNamespace(
                dataset=SimpleNamespace(actor_id="liar"), respond=lambda frame: hostile
            )
            transport = InProcessTransport([honest, liar])
        else:
            server = stack.enter_context(serving(honest))
            listener = stack.enter_context(socket.create_server(("127.0.0.1", 0)))
            peer = threading.Thread(target=reply_once, args=(listener, hostile), daemon=True)
            peer.start()
            stack.callback(peer.join, 10.0)
            transport = SocketTransport([server.address, listener.getsockname()[:2]])
        ranking, log = run_campaign(
            transport, metric, None, FAST_HYPER, base_seed=6, noise_feature_count=2
        )
    assert sorted(ranking.actor_order()) == sorted([datasets[0].actor_id, NOISE_ACTOR_ID])
    [timeout] = log["timeouts"]
    assert timeout["detail"].startswith("malformed")
    assert log["declines"] == []


class TestSocketTransport:
    def test_socket_equals_in_process(self):
        datasets, metric = synth_actors(seed=8, weights=(3.0, 1.0))
        in_process = InProcessTransport(
            [LocalActor(dataset=d, base_seed=6) for d in datasets]
        )
        expected, _ = run_campaign(
            in_process, metric, None, FAST_HYPER, base_seed=6, noise_feature_count=2
        )
        with ExitStack() as stack:
            servers = [
                stack.enter_context(serving(LocalActor(dataset=d, base_seed=6)))
                for d in datasets
            ]
            transport = SocketTransport([s.address for s in servers])
            got, _ = run_campaign(
                transport, metric, None, FAST_HYPER, base_seed=6, noise_feature_count=2
            )
        assert got == expected

    def test_declines_are_listed_by_actor_id_on_both_transports(self):
        datasets, metric = synth_actors(seed=8, weights=(3.0, 2.0, 1.0, 0.5))
        # Every actor but actor-2 asks for more parts than the metric has.
        overlaps = [len(metric) + 1, 0, len(metric) + 1, len(metric) + 1]

        def actors():
            return [
                LocalActor(dataset=d, base_seed=6, min_overlap=n)
                for d, n in zip(datasets, overlaps)
            ]

        _, expected = run_campaign(
            InProcessTransport(actors()), metric, None, FAST_HYPER, base_seed=6,
            noise_feature_count=2,
        )
        assert expected["declines"] == ["actor-1", "actor-3", "actor-4"]
        for _ in range(4):
            # Fresh ports each round; bound last to first, so that their
            # order, if it leaked into the log, would be against the ids.
            with ExitStack() as stack:
                servers = [stack.enter_context(serving(actor)) for actor in reversed(actors())]
                transport = SocketTransport([s.address for s in reversed(servers)])
                _, log = run_campaign(
                    transport, metric, None, FAST_HYPER, base_seed=6,
                    noise_feature_count=2,
                )
            assert log == expected

    def test_socket_transcript_one_scalar_per_actor(self):
        datasets, metric = synth_actors(seed=8, weights=(3.0, 1.0))
        with ExitStack() as stack:
            servers = [
                stack.enter_context(serving(LocalActor(dataset=d, base_seed=6)))
                for d in datasets
            ]
            transport = SocketTransport([s.address for s in servers])
            run_campaign(
                transport, metric, None, FAST_HYPER, base_seed=6, noise_feature_count=2
            )
        received = [t for t in transport.transcript if t.direction == "received"]
        assert len(received) == len(datasets)
        for entry in received:
            frame = json.loads(entry.data.decode())
            assert frame["kind"] == "response"
            assert all(not isinstance(v, (list, dict)) for v in frame.values())

    def test_unreachable_endpoint_counts_as_timeout(self):
        datasets, metric = synth_actors(seed=8, weights=(3.0, 1.0))
        # Reserve a port with no listener behind it.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_address = placeholder.getsockname()
        placeholder.close()
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            transport = SocketTransport([server.address, dead_address])
            ranking, log = run_campaign(
                transport,
                metric,
                None,
                FAST_HYPER,
                base_seed=6,
                deadline=5.0,
                noise_feature_count=2,
            )
        assert datasets[0].actor_id in ranking.actor_order()
        assert len(log["timeouts"]) == 1

    def test_server_ignores_garbage_frames(self):
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            with socket.create_connection(server.address, timeout=5.0) as conn:
                conn.sendall(b"this is not a frame\n")
                with conn.makefile("rb") as stream:
                    assert stream.readline() == b""
            # The server must still answer well-formed calls afterwards.
            _, metric = synth_actors(seed=8, weights=(3.0, 1.0))
            transport = SocketTransport([server.address])
            ranking, _ = run_campaign(
                transport, metric, None, FAST_HYPER, base_seed=6, noise_feature_count=2
            )
            assert datasets[0].actor_id in ranking.actor_order()

    def ask(self, server, frame: bytes) -> bytes:
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(frame)
            with conn.makefile("rb") as stream:
                return stream.readline()

    def test_server_answers_after_a_burst_of_garbage(self):
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        rng = np.random.default_rng(13)
        noise = [rng.bytes(n).replace(b"\n", b"") + b"\n" for n in (1, 7, 64, 512, 4096)]
        garbage = [
            *HOSTILE_FRAMES.values(),
            *(call_frame_with_hyper(**hyper) for hyper in BAD_HYPER),
            *noise,
            encode_message(ALPHA_REPLY),
            encode_message(Decline("alpha", "call-000001")),
            b"\n",
            b"null\n",
        ]
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            # One connection at a time: each frame is dropped without a reply.
            assert [self.ask(server, frame) for frame in garbage] == [b""] * len(garbage)
            reply = decode_message(self.ask(server, encode_message(example_call())))
            assert reply == Decline(datasets[0].actor_id, example_call().call_id)

    @pytest.mark.parametrize("hyper", BAD_HYPER, ids=lambda h: next(iter(h)))
    def test_server_survives_invalid_hyper(self, hyper):
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            assert self.ask(server, call_frame_with_hyper(**hyper)) == b""
            # A valid call is still answered: no overlap, so a decline.
            reply = decode_message(self.ask(server, encode_message(example_call())))
            assert reply == Decline(datasets[0].actor_id, example_call().call_id)

    def test_server_survives_failure_inside_a_call(self, monkeypatch):
        datasets, metric = synth_actors(seed=8, weights=(3.0, 1.0))

        def broken_training(*args, **kwargs):
            raise RuntimeError("training blew up")

        # Decodes, but fails with an error handle_call does not turn into
        # a decline, once training starts.
        monkeypatch.setattr(protocol, "train_ensemble", broken_training)
        call = CallForUncertainty("call-000001", metric, FAST_HYPER, 30.0)
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            assert self.ask(server, encode_message(call)) == b""
            reply = decode_message(self.ask(server, encode_message(example_call())))
            assert reply == Decline(datasets[0].actor_id, example_call().call_id)

    def test_server_drops_oversized_frame(self, caplog):
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        frame = encode_message(example_call())
        # Valid JSON if read whole: the padding is whitespace.
        oversized = frame[:-1] + b" " * protocol.MAX_FRAME_BYTES + b"\n"
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            try:
                assert self.ask(server, oversized) == b""
            except (ConnectionResetError, BrokenPipeError):
                pass  # the server hung up before the whole frame was sent
            reply = decode_message(self.ask(server, frame))
            assert reply == Decline(datasets[0].actor_id, example_call().call_id)
        assert "dropping undecodable frame: truncated" in caplog.text

    def test_server_drops_unterminated_frame(self):
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        frame = encode_message(example_call())
        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            with socket.create_connection(server.address, timeout=5.0) as conn:
                conn.sendall(frame[:-1])
                conn.shutdown(socket.SHUT_WR)
                with conn.makefile("rb") as stream:
                    assert stream.readline() == b""
            reply = decode_message(self.ask(server, frame))
            assert reply == Decline(datasets[0].actor_id, example_call().call_id)

    def test_reply_repeating_a_key_counts_as_a_timeout(self):
        listener = socket.create_server(("127.0.0.1", 0))
        peer = threading.Thread(
            target=reply_once, args=(listener, REPEATED_KEY_REPLY), daemon=True
        )
        peer.start()
        try:
            transport = SocketTransport([listener.getsockname()[:2]])
            [outcome], _ = transport.request(example_call(), lambda: None)
        finally:
            peer.join(timeout=10.0)
            listener.close()
        assert outcome.message is None
        assert outcome.detail == "malformed: key 'actor_id' appears more than once"

    @pytest.mark.parametrize("name", ["object-call-id", "null-actor-id"])
    def test_reply_with_a_non_text_id_counts_as_a_timeout(self, name):
        listener = socket.create_server(("127.0.0.1", 0))
        peer = threading.Thread(
            target=reply_once, args=(listener, NON_TEXT_FRAMES[name]), daemon=True
        )
        peer.start()
        try:
            transport = SocketTransport([listener.getsockname()[:2]])
            [outcome], _ = transport.request(example_call(), lambda: None)
        finally:
            peer.join(timeout=10.0)
            listener.close()
        assert not peer.is_alive()
        assert outcome.message is None
        assert outcome.detail.startswith("malformed")

    def test_longest_deadline_is_a_valid_socket_timeout(self):
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        actor = LocalActor(dataset=datasets[0], base_seed=6, always_decline=True)
        with serving(actor) as server:
            transport = SocketTransport([server.address])
            call = example_call(deadline=threading.TIMEOUT_MAX)
            (outcome,), _ = transport.request(call, lambda: None)
        assert outcome.message == Decline(datasets[0].actor_id, call.call_id)

    def test_concurrent_queries_lose_no_transcript_entry(self):
        # More peers than cores, and a short switch interval, so query
        # threads interleave their transcript appends as often as they can.
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        interval = sys.getswitchinterval()
        with ExitStack() as stack:
            servers = [
                stack.enter_context(
                    serving(LocalActor(dataset=datasets[0], base_seed=6, always_decline=True))
                )
                for _ in range(8)
            ]
            transport = SocketTransport([s.address for s in servers])
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(10):
                    outcomes, _ = transport.request(example_call(deadline=10.0), lambda: None)
                    assert all(isinstance(o.message, Decline) for o in outcomes)
            finally:
                sys.setswitchinterval(interval)
        directions = [t.direction for t in transport.transcript]
        assert directions.count("sent") == directions.count("received") == 80

    def test_local_share_runs_while_peers_work(self):
        listener = socket.create_server(("127.0.0.1", 0))
        local_ran = threading.Event()
        call = example_call(deadline=3.0)
        reply = UncertaintyResponse("alpha", call.call_id, 0.5)

        def patient_peer() -> None:
            # Answers only after the coordinator's own share has run; had
            # the transport run it after the query, the query would time out.
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                stream.readline()
                if local_ran.wait(timeout=10.0):
                    conn.sendall(encode_message(reply))

        def local() -> str:
            local_ran.set()
            return "floor"

        peer = threading.Thread(target=patient_peer, daemon=True)
        peer.start()
        try:
            transport = SocketTransport([listener.getsockname()[:2]])
            [outcome], mine = transport.request(call, local)
        finally:
            peer.join(timeout=10.0)
            listener.close()
        assert not peer.is_alive()
        assert mine == "floor"
        assert outcome.message == reply

    def test_dribbling_peer_times_out_within_the_deadline(self):
        # A peer that reads the call, then sends a valid reply one byte
        # every 0.1 s, would take about 11 s. Every read it does makes is
        # quicker than the deadline, but the exchange as a whole is not.
        datasets, metric = synth_actors(seed=8, weights=(3.0, 1.0))
        listener = socket.create_server(("127.0.0.1", 0))
        reply = encode_message(UncertaintyResponse("dribbler", protocol.CALL_ID, 0.5))
        hung_up = threading.Event()

        def dribble() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                stream.readline()
                try:
                    for byte in reply:
                        if hung_up.wait(0.1):
                            return
                        conn.sendall(bytes([byte]))
                except OSError:
                    pass  # the coordinator hung up

        peer = threading.Thread(target=dribble, daemon=True)
        peer.start()
        deadline = 2.0
        try:
            with serving(LocalActor(dataset=datasets[0], base_seed=6)) as honest:
                transport = SocketTransport([honest.address, listener.getsockname()[:2]])
                start = time.monotonic()
                ranking, log = run_campaign(
                    transport,
                    metric,
                    None,
                    FAST_HYPER,
                    base_seed=6,
                    deadline=deadline,
                    noise_feature_count=2,
                )
                elapsed = time.monotonic() - start
        finally:
            hung_up.set()
            peer.join(timeout=10.0)
            listener.close()
        assert not peer.is_alive()
        assert elapsed < deadline + 1.0
        assert set(ranking.actor_order()) == {datasets[0].actor_id, NOISE_ACTOR_ID}
        [timeout] = log["timeouts"]
        assert timeout["detail"] == "timed out"

    def test_server_drops_a_dribbling_client_after_its_timeout(self, monkeypatch):
        # The server handles one connection at a time, so a client that
        # sends its call one byte every 0.1 s must lose the server once the
        # handler's timeout has passed, not hold it for as long as it sends.
        monkeypatch.setattr(protocol._CallHandler, "timeout", 0.5)
        datasets, _ = synth_actors(seed=8, weights=(3.0, 1.0))
        frame = encode_message(example_call())
        stop = threading.Event()

        def dribble(conn: socket.socket) -> None:
            try:
                for byte in frame[:40]:
                    if stop.wait(0.1):
                        return
                    conn.sendall(bytes([byte]))
            except OSError:
                pass  # the server hung up

        with serving(LocalActor(dataset=datasets[0], base_seed=6)) as server:
            with socket.create_connection(server.address, timeout=5.0) as slow:
                slow.sendall(frame[:1])
                peer = threading.Thread(target=dribble, args=(slow,), daemon=True)
                peer.start()
                time.sleep(0.05)  # the server is reading the slow call
                start = time.monotonic()
                try:
                    reply = decode_message(self.ask(server, frame))
                    waited = time.monotonic() - start
                finally:
                    stop.set()
                    peer.join(timeout=10.0)
        assert not peer.is_alive()
        assert reply == Decline(datasets[0].actor_id, example_call().call_id)
        assert waited < 0.5 + 1.0

    def test_oversized_reply_counts_as_failed_peer(self):
        listener = socket.create_server(("127.0.0.1", 0))
        reply = b"x" * (protocol.MAX_FRAME_BYTES + 1) + b"\n"

        def flood() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                stream.readline()
                try:
                    conn.sendall(reply)
                except OSError:
                    pass  # the coordinator stopped reading at the cap

        peer = threading.Thread(target=flood, daemon=True)
        peer.start()
        try:
            transport = SocketTransport([listener.getsockname()[:2]])
            [outcome], _ = transport.request(example_call(), lambda: None)
        finally:
            peer.join(timeout=10.0)
            listener.close()
        assert not peer.is_alive()
        assert outcome.message is None
        assert "truncated" in outcome.detail
        received = [t.data for t in transport.transcript if t.direction == "received"]
        assert [len(data) for data in received] == [protocol.MAX_FRAME_BYTES]
