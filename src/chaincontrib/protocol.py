"""Coordinator/actor message flow for decentralised contribution estimation.

The coordinator broadcasts the metric of interest (optionally passed
through an invertible affine transform so the raw values stay private)
as a call for uncertainty. Each actor trains its local ensemble and
replies with exactly one scalar, or declines. The coordinator runs the
same pipeline on pure-noise features for a no-knowledge floor and ranks
all scalars ascending: the lower an actor's uncertainty, the higher its
estimated contribution.

Messages travel as newline-delimited UTF-8 JSON frames. Both transports
send every frame through one exchange, which records it, decodes the
reply and checks its kind; they differ only in how bytes reach a peer.
So transport independence is structural, not incidental.

A transport's ``request(call, local)`` also runs the coordinator's own
share of the call, ``local()`` (the noise baseline), on the calling
thread. The in-process transport runs it after the actors; the socket
transport runs it while its peers train, so a socket campaign takes
about as long as its slowest actor rather than that plus one ensemble.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import socket
import socketserver
import threading
import time
from bisect import insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from chaincontrib.dataset import (
    NOISE_ACTOR_ID,
    ActorDataset,
    MetricSeries,
    make_noise_actor,
    parse_json,
    require_real,
    require_text,
    require_unique,
    write_csv,
)
from chaincontrib.ensemble import (
    EnsembleHyper,
    TrainingError,
    total_uncertainty,
    train_ensemble,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DEFAULT_MIN_OVERLAP = 50
DEFAULT_NOISE_FEATURES = 5
DEFAULT_DEADLINE = 120.0
DEFAULT_SLACK = 1.0
# Longest frame either side of a socket reads. A call frame for 20 000
# rows is about 0.7 MB. A longer frame is read only up to this size, so it
# lacks its newline and fails to decode as truncated.
MAX_FRAME_BYTES = 8 * 1024 * 1024
# Bytes asked of one socket read while a frame comes in.
_RECV_BYTES = 64 * 1024
# A campaign issues exactly one call; replies must carry its id.
CALL_ID = "call-000001"

_T = TypeVar("_T")


class DecodeError(ValueError):
    """A frame failed to decode; `reason` says how."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class CampaignError(RuntimeError):
    """A campaign could not produce a ranking.

    When every actor declined or timed out, or a reply answered another
    call or named an actor id in use, ``log`` is the campaign log as read
    so far, without a ranking. For a failing noise baseline it is None.
    """

    def __init__(self, message: str, log: dict | None = None):
        super().__init__(message)
        self.log = log


def derive_seed(base_seed: int, label: str) -> int:
    """Stable per-actor seed; depends only on (base_seed, actor id).

    Hash-derived so that results are independent of actor arrival or
    enumeration order and of which other actors participate.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class MetricTransform:
    """Invertible affine map a coordinator may apply before sharing."""

    scale: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.scale == 0.0:
            raise ValueError("scale must be non-zero")

    @classmethod
    def unit_spread(cls, metric: MetricSeries) -> "MetricTransform":
        """The map to zero mean and unit spread. The small per-actor networks
        need it to train reliably whatever the metric's units, and it keeps
        the reported uncertainties comparable; the actors never see it."""
        if len(metric) == 0:
            raise ValueError("metric is empty; nothing to estimate")
        spread = float(np.std(metric.values))
        center = float(np.mean(metric.values))
        if spread == 0.0:
            raise ValueError("metric is constant; nothing to estimate")
        return cls(scale=1.0 / spread, offset=-center / spread)


def apply_transform(series: MetricSeries, transform: MetricTransform) -> MetricSeries:
    """value -> scale * value + offset, part ids untouched."""
    return MetricSeries(
        part_ids=series.part_ids,
        values=transform.scale * series.values + transform.offset,
    )


def require_deadline(seconds) -> float:
    """``seconds`` as a float, if a number that is positive and at most the
    longest socket timeout."""
    if isinstance(seconds, (int, float)) and not 0.0 < seconds <= threading.TIMEOUT_MAX:
        limit = f"at most {threading.TIMEOUT_MAX:g} s"
        raise ValueError(f"deadline must be positive and finite, {limit}")
    return require_real("deadline", seconds)


@dataclass(frozen=True)
class CallForUncertainty:
    call_id: str
    metric: MetricSeries
    hyper: EnsembleHyper
    response_deadline: float

    def __post_init__(self) -> None:
        if len(self.metric) == 0:
            raise ValueError("a call must carry a non-empty metric")
        object.__setattr__(
            self, "response_deadline", require_deadline(self.response_deadline)
        )


@dataclass(frozen=True)
class UncertaintyResponse:
    actor_id: str
    call_id: str
    total_uncertainty: float

    def __post_init__(self) -> None:
        value = float(self.total_uncertainty)
        if not np.isfinite(value) or value < 0.0:
            raise ValueError("total_uncertainty must be finite and non-negative")
        object.__setattr__(self, "total_uncertainty", value)


@dataclass(frozen=True)
class Decline:
    actor_id: str
    call_id: str


Message = Union[CallForUncertainty, UncertaintyResponse, Decline]

_HYPER_FIELDS = frozenset(f.name for f in fields(EnsembleHyper))


def encode_message(message: Message) -> bytes:
    """One message per UTF-8 text line, terminated by a newline."""
    if isinstance(message, CallForUncertainty):
        kind, body = "call", {
            "part_ids": list(message.metric.part_ids),
            "values": [float(v) for v in message.metric.values],
            "hyper": asdict(message.hyper),
            "response_deadline": message.response_deadline,
        }
    elif isinstance(message, UncertaintyResponse):
        kind, body = "response", {
            "actor_id": message.actor_id,
            "total_uncertainty": message.total_uncertainty,
        }
    elif isinstance(message, Decline):
        kind, body = "decline", {"actor_id": message.actor_id}
    else:
        raise TypeError(f"not a protocol message: {type(message).__name__}")
    frame = {
        "kind": kind, "schema_version": SCHEMA_VERSION, "call_id": message.call_id, **body
    }
    return (json.dumps(frame, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def _require(frame: dict, key: str):
    if key not in frame:
        raise DecodeError("malformed", f"missing field {key!r}")
    return frame[key]


def decode_message(data: bytes) -> Message:
    """Inverse of encode_message; unknown fields are ignored. The schema
    version must be the JSON integer 1, ids JSON strings and metric values
    JSON numbers, and no object may repeat a key, or the frame is refused."""
    if not data or not data.endswith(b"\n"):
        raise DecodeError("truncated", "frame must end with a newline")
    try:
        frame = parse_json(data.decode("utf-8"))
        if not isinstance(frame, dict):
            raise DecodeError("malformed", "frame is not an object")
        version = _require(frame, "schema_version")
        # True == 1 and 1.0 == 1 in Python, so the type is checked as well.
        if type(version) is not int or version != SCHEMA_VERSION:
            raise DecodeError("version-mismatch", f"got {version!r}, speak {SCHEMA_VERSION}")
        kind = _require(frame, "kind")
        call_id = require_text("call_id", _require(frame, "call_id"))
        if kind == "call":
            hyper_raw = _require(frame, "hyper")
            if not isinstance(hyper_raw, dict):
                raise DecodeError("malformed", "hyper must be an object")
            part_ids, values = _require(frame, "part_ids"), _require(frame, "values")
            # One check of each list's element types, not one call per element.
            if not isinstance(part_ids, list) or set(map(type, part_ids)) - {str}:
                raise DecodeError("malformed", "part_ids must be a list of strings")
            if not isinstance(values, list) or set(map(type, values)) - {int, float}:
                raise DecodeError("malformed", "values must be a list of numbers")
            hyper = EnsembleHyper(**{k: v for k, v in hyper_raw.items() if k in _HYPER_FIELDS})
            metric = MetricSeries(
                part_ids=tuple(part_ids), values=np.asarray(values, dtype=float)
            )
            return CallForUncertainty(
                call_id=call_id,
                metric=metric,
                hyper=hyper,
                response_deadline=_require(frame, "response_deadline"),
            )
        if kind == "response":
            value = _require(frame, "total_uncertainty")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DecodeError("malformed", "total_uncertainty must be one number")
            return UncertaintyResponse(
                actor_id=require_text("actor_id", _require(frame, "actor_id")),
                call_id=call_id,
                total_uncertainty=float(value),
            )
        if kind == "decline":
            actor_id = require_text("actor_id", _require(frame, "actor_id"))
            return Decline(actor_id=actor_id, call_id=call_id)
    except DecodeError:
        raise
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON, a repeated key, over-long
        # integers and out-of-range fields; RecursionError over-deep nesting.
        raise DecodeError("malformed", str(exc)) from None
    raise DecodeError("unknown-kind", repr(kind))


def issue_call(
    metric: MetricSeries,
    transform: MetricTransform | None,
    hyper: EnsembleHyper,
    deadline: float,
) -> CallForUncertainty:
    """The one call of a campaign, on the (optionally transformed) metric."""
    if transform is not None:
        metric = apply_transform(metric, transform)
    return CallForUncertainty(
        call_id=CALL_ID, metric=metric, hyper=hyper, response_deadline=deadline
    )


def handle_call(
    actor: ActorDataset,
    call: CallForUncertainty,
    base_seed: int,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> UncertaintyResponse | Decline:
    """An actor's local computation: train, then report one scalar.

    Only the scalar (or a decline) ever leaves this function; feature
    data, model parameters, row counts, and failure diagnostics stay on
    the actor's side.
    """
    features, targets, _ = actor.align(call.metric)
    if len(targets) < min_overlap:
        logger.info(
            "actor %s declining call %s: overlap %d below minimum %d",
            actor.actor_id, call.call_id, len(targets), min_overlap,
        )
        return Decline(actor_id=actor.actor_id, call_id=call.call_id)
    seed = derive_seed(base_seed, actor.actor_id)
    try:
        ensemble = train_ensemble(features, targets, call.hyper, base_seed=seed)
        scalar = total_uncertainty(ensemble)
    except (TrainingError, ValueError) as exc:
        logger.warning(
            "actor %s declining call %s after local failure: %s",
            actor.actor_id, call.call_id, exc,
        )
        return Decline(actor_id=actor.actor_id, call_id=call.call_id)
    return UncertaintyResponse(
        actor_id=actor.actor_id, call_id=call.call_id, total_uncertainty=scalar
    )


def noise_actor(
    metric: MetricSeries, base_seed: int, feature_count: int = DEFAULT_NOISE_FEATURES
) -> ActorDataset:
    """The noise reference on ``metric``'s parts: the actor the campaign
    ranks as its floor and ``run-central`` pools, so both routes see one."""
    return make_noise_actor(
        row_count=len(metric),
        feature_count=feature_count,
        part_ids=metric.part_ids,
        seed=derive_seed(base_seed, NOISE_ACTOR_ID),
    )


def run_noise_baseline(
    call: CallForUncertainty,
    base_seed: int,
    feature_count: int = DEFAULT_NOISE_FEATURES,
) -> UncertaintyResponse:
    """The coordinator's no-knowledge reference: identical pipeline, noise features."""
    noise = noise_actor(call.metric, base_seed, feature_count)
    # The members' seeds come from the noise actor's derived seed, which
    # handle_call derives once more, not from base_seed directly: that
    # keeps every floor, and so every ranking, bit-identical.
    result = handle_call(noise, call, base_seed=derive_seed(base_seed, NOISE_ACTOR_ID))
    if isinstance(result, Decline):
        raise CampaignError("the noise baseline itself failed to train")
    return result


@dataclass(frozen=True)
class RankEntry:
    """One ranked actor; its fields, in order, are a ``ranking.csv`` row."""

    estimated_rank: int
    actor_id: str
    total_uncertainty: float
    below_noise_floor: bool


_RANKING_COLUMNS = ["rank", "actor_id", "total_uncertainty", "below_noise_floor"]


@dataclass(frozen=True)
class ContributionRanking:
    """Actors ordered by ascending uncertainty; rank 1 = highest contribution.
    No actor may be ranked twice, and the noise actor, which sets the
    floor, is never flagged below it."""

    entries: tuple[RankEntry, ...]

    def __post_init__(self) -> None:
        require_unique("actor_id", [e.actor_id for e in self.entries])
        if any(e.below_noise_floor for e in self.entries if e.actor_id == NOISE_ACTOR_ID):
            raise ValueError(f"{NOISE_ACTOR_ID} is flagged below its own noise floor")

    @property
    def noise_floor(self) -> float:
        """The noise actor's uncertainty, or NaN when no noise actor is ranked."""
        floor = [e.total_uncertainty for e in self.entries if e.actor_id == NOISE_ACTOR_ID]
        return floor[0] if floor else float("nan")

    def actor_order(self) -> tuple[str, ...]:
        return tuple(entry.actor_id for entry in self.entries)

    def uncertainty_of(self, actor_id: str) -> float:
        for entry in self.entries:
            if entry.actor_id == actor_id:
                return entry.total_uncertainty
        raise KeyError(actor_id)

    def to_csv(self, path) -> None:
        write_csv(path, _RANKING_COLUMNS, map(astuple, self.entries))

    @classmethod
    def from_csv(cls, path) -> "ContributionRanking":
        """Read back a file written by :meth:`to_csv`.

        As in :func:`load_csv`, every row has one field per column and a
        non-empty id. A ``below_noise_floor`` cell must be ``true`` or
        ``false``, as :func:`write_csv` writes it; no actor may be ranked
        twice, every uncertainty is finite and non-negative, and the ranks
        run 1..n in the order :func:`rank_contributions` gives: ascending
        uncertainty, ties broken by actor id.
        """
        # As load_csv does, accept the byte-order mark of a spreadsheet export.
        with Path(path).open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _RANKING_COLUMNS:
                raise ValueError(f"{path} is not a ranking file (columns {header})")
            rows = list(reader)
        if not rows:
            raise ValueError(f"{path} contains no ranked actors")
        for row_index, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_index} has {len(row)} fields, expected {len(header)}"
                )
            if not row[1].strip():
                raise ValueError(f"{path}: row {row_index} has an empty actor_id")
        flags = {"true": True, "false": False}
        bad = [flag for *_, flag in rows if flag not in flags]
        if bad:
            raise ValueError(f"{path}: below_noise_floor must be true or false, got {bad}")
        try:
            entries = [
                RankEntry(int(rank), actor_id, float(uncertainty), flags[flag])
                for rank, actor_id, uncertainty, flag in rows
            ]
        except ValueError as exc:
            raise ValueError(
                f"{path}: a rank or total_uncertainty is not a number ({exc})"
            ) from None
        if not all(0.0 <= e.total_uncertainty < np.inf for e in entries):
            raise ValueError(f"{path}: a total_uncertainty is not finite and non-negative")
        entries.sort(key=lambda e: (e.total_uncertainty, e.actor_id))
        ranks = [e.estimated_rank for e in entries]
        if ranks != list(range(1, len(entries) + 1)):
            raise ValueError(
                f"{path}: ranks {ranks} in ascending total_uncertainty order "
                f"(ties by actor id) do not run 1..{len(entries)}"
            )
        try:
            return cls(entries=tuple(entries))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def rank_contributions(
    responses: Sequence[UncertaintyResponse],
    noise: UncertaintyResponse,
    slack: float = DEFAULT_SLACK,
) -> ContributionRanking:
    """Ascending sort of all reported scalars, noise included.

    ``noise`` is the noise baseline's reply, as ``NOISE_ACTOR_ID``. An
    actor whose uncertainty reaches ``slack`` times the noise floor is
    flagged as showing no significant contribution; the noise baseline
    itself is never flagged. Ties break lexicographically by actor id.
    """
    if not responses:
        raise CampaignError("no responses to rank")
    if not slack > 0:
        raise ValueError("slack must be positive")
    call_ids = {r.call_id for r in responses} | {noise.call_id}
    if len(call_ids) != 1:
        raise ValueError(f"responses mix call_ids: {sorted(call_ids)}")
    everyone = sorted(
        [*responses, noise], key=lambda r: (r.total_uncertainty, r.actor_id)
    )
    floor = noise.total_uncertainty
    entries = tuple(
        RankEntry(
            estimated_rank=i + 1,
            actor_id=r.actor_id,
            total_uncertainty=r.total_uncertainty,
            below_noise_floor=(
                r.actor_id != noise.actor_id and r.total_uncertainty >= slack * floor
            ),
        )
        for i, r in enumerate(everyone)
    )
    return ContributionRanking(entries=entries)


@dataclass(frozen=True)
class TranscriptEntry:
    """One captured frame: who it went to or came from, and its raw bytes."""

    direction: str  # "sent" or "received"
    peer: str
    data: bytes


@dataclass
class ActorOutcome:
    """What the transport observed for one endpoint during a call."""

    peer: str
    message: UncertaintyResponse | Decline | None  # None = timeout/unreachable
    detail: str = ""


@dataclass
class LocalActor:
    """In-process actor endpoint."""

    dataset: ActorDataset
    base_seed: int
    min_overlap: int = DEFAULT_MIN_OVERLAP
    always_decline: bool = False

    def respond(self, call_frame: bytes) -> bytes:
        call = decode_message(call_frame)
        if not isinstance(call, CallForUncertainty):
            raise DecodeError("unknown-kind", "actor expected a call frame")
        if self.always_decline:
            reply: Message = Decline(
                actor_id=self.dataset.actor_id, call_id=call.call_id
            )
        else:
            reply = handle_call(
                self.dataset, call, self.base_seed, min_overlap=self.min_overlap
            )
        return encode_message(reply)


def _exchange(
    transcript: list[TranscriptEntry],
    peer: str,
    frame: bytes,
    send: Callable[[bytes], bytes],
) -> ActorOutcome:
    """Send one call frame through ``send`` and decode the reply it returns.

    Both frames go on the transcript. A reply that does not decode, or
    is not a reply, counts as a timeout: an outcome with no message.
    """
    transcript.append(TranscriptEntry("sent", peer, frame))
    reply_frame = send(frame)
    transcript.append(TranscriptEntry("received", peer, reply_frame))
    try:
        reply = decode_message(reply_frame)
    except DecodeError as exc:
        return ActorOutcome(peer=peer, message=None, detail=str(exc))
    if not isinstance(reply, (UncertaintyResponse, Decline)):
        return ActorOutcome(peer=peer, message=None, detail="non-reply frame")
    return ActorOutcome(peer=peer, message=reply)


def _time_left(conn: socket.socket, end: float) -> None:
    """Give the next operation on ``conn`` only the time left before the
    monotonic time ``end``, so that no peer can stretch an exchange."""
    left = end - time.monotonic()
    if left <= 0.0:
        raise TimeoutError("timed out")
    conn.settimeout(left)


def _read_frame(conn: socket.socket, end: float) -> bytes:
    """One frame from ``conn``, read by the monotonic time ``end``: up to
    and including its newline, at most MAX_FRAME_BYTES, or what came
    before the peer closed. Raises TimeoutError once ``end`` passes."""
    chunks, size = [], 0
    while size < MAX_FRAME_BYTES:
        _time_left(conn, end)
        chunk = conn.recv(min(_RECV_BYTES, MAX_FRAME_BYTES - size))
        if not chunk:
            break
        newline = chunk.find(b"\n")
        if newline >= 0:
            chunks.append(chunk[: newline + 1])
            break
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


def _send_over(conn: socket.socket, end: float, frame: bytes) -> bytes:
    _time_left(conn, end)
    conn.sendall(frame)
    return _read_frame(conn, end)


class InProcessTransport:
    """Routes frames through the codec without touching the network."""

    def __init__(self, actors: Sequence[LocalActor]):
        self.actors = list(actors)
        self.transcript: list[TranscriptEntry] = []

    def request(
        self, call: CallForUncertainty, local: Callable[[], _T]
    ) -> tuple[list[ActorOutcome], _T]:
        """Ask each actor in turn, then run ``local()``, all on this thread."""
        frame = encode_message(call)
        outcomes = [
            _exchange(self.transcript, actor.dataset.actor_id, frame, actor.respond)
            for actor in self.actors
        ]
        return outcomes, local()


class SocketTransport:
    """Connects to already-listening actor processes, one frame each way."""

    def __init__(self, endpoints: Sequence[tuple[str, int]]):
        if not endpoints:
            raise ValueError("at least one endpoint required")
        self.endpoints = list(endpoints)
        # Query threads append to it; one list.append is atomic.
        self.transcript: list[TranscriptEntry] = []

    def request(
        self, call: CallForUncertainty, local: Callable[[], _T]
    ) -> tuple[list[ActorOutcome], _T]:
        """Query every peer at once and run ``local()`` here while they work.

        Each query has one connection, and its whole exchange (connect,
        send, reply) must end within the call's deadline; a peer that
        cannot be reached, or does not reply in time, counts as a
        timeout. Outcomes come back in endpoint order. If ``local``
        raises, its error propagates once every query has ended.
        """
        frame = encode_message(call)
        deadline = call.response_deadline

        def query(endpoint: tuple[str, int]) -> ActorOutcome:
            host, port = endpoint
            peer = f"{host}:{port}"
            end = time.monotonic() + deadline
            try:
                with socket.create_connection(endpoint, timeout=deadline) as conn:
                    return _exchange(self.transcript, peer, frame, partial(_send_over, conn, end))
            except OSError as exc:
                return ActorOutcome(peer=peer, message=None, detail=str(exc))

        with ThreadPoolExecutor(max_workers=len(self.endpoints)) as pool:
            pending = [pool.submit(query, endpoint) for endpoint in self.endpoints]
            mine = local()
            return [future.result() for future in pending], mine


class _CallHandler(socketserver.BaseRequestHandler):
    """Reads one capped call frame and writes the actor's reply."""

    # Seconds a client has to send its whole call frame, and then to take
    # the reply.
    timeout = 10.0

    def handle(self) -> None:
        frame = _read_frame(self.request, time.monotonic() + self.timeout)
        if not frame:
            return
        actor = self.server.actor
        try:
            reply = actor.respond(frame)
        except DecodeError as exc:
            logger.warning(
                "actor %s dropping undecodable frame: %s", actor.dataset.actor_id, exc
            )
            return
        self.request.settimeout(self.timeout)
        self.request.sendall(reply)


class ActorServer(socketserver.TCPServer):
    """Serves one actor over a stream socket, one call per connection, as
    any ``socketserver`` server: ``serve_forever()``, ``shutdown()``."""

    # As socket.create_server does; TCPServer leaves it off by default.
    allow_reuse_address = True

    def __init__(self, actor: LocalActor, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _CallHandler)
        self.actor = actor

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def handle_error(self, request, client_address) -> None:
        # One bad connection must not stop the actor.
        logger.exception("actor %s dropping a connection", self.actor.dataset.actor_id)


def run_campaign(
    transport,
    metric: MetricSeries,
    transform: MetricTransform | None,
    hyper: EnsembleHyper,
    base_seed: int,
    deadline: float = DEFAULT_DEADLINE,
    noise_feature_count: int = DEFAULT_NOISE_FEATURES,
    slack: float = DEFAULT_SLACK,
) -> tuple[ContributionRanking, dict]:
    """One full call-and-rank round over the given transport.

    The coordinator's noise baseline is handed to the transport as its
    own share of the call: the socket transport trains it while the
    actors train theirs. A failing noise baseline therefore raises its
    ``CampaignError``, with no log, even when every actor declined as well.
    Any other failure raises a ``CampaignError`` that carries the log.

    Timeouts and unreachable endpoints count as declines. The result is a
    pure function of (metric, actor membership, hyper, seeds): per-actor
    seeds are derived from actor ids, and responses and declines are
    sorted by actor id, so arrival order cannot matter (timeouts keep the
    transport's endpoint order). Two replies, or a reply and the noise
    baseline, that name one actor id fail the campaign.
    """
    call = issue_call(metric, transform, hyper, deadline)
    outcomes, noise = transport.request(
        call,
        partial(run_noise_baseline, call, base_seed, feature_count=noise_feature_count),
    )

    responses: list[UncertaintyResponse] = []
    log: dict = {
        "call_id": call.call_id,
        "transformed": transform is not None,
        "responses": [],
        "declines": [],
        "timeouts": [],
    }
    claimed = {NOISE_ACTOR_ID}
    for outcome in outcomes:
        reply = outcome.message
        if reply is None:
            log["timeouts"].append({"peer": outcome.peer, "detail": outcome.detail})
            continue
        if reply.call_id != call.call_id:
            raise CampaignError(f"reply from {outcome.peer} answers a different call", log)
        if reply.actor_id in claimed:
            raise CampaignError(
                f"reply from {outcome.peer} names actor {reply.actor_id!r}, "
                "which another reply or the noise baseline already uses",
                log,
            )
        claimed.add(reply.actor_id)
        if isinstance(reply, UncertaintyResponse):
            responses.append(reply)
        else:
            insort(log["declines"], reply.actor_id)
    if not responses:
        raise CampaignError("every actor declined or timed out; nothing to rank", log)

    responses.sort(key=lambda r: r.actor_id)
    ranking = rank_contributions(responses, noise, slack=slack)
    log["responses"] = [
        {"actor_id": r.actor_id, "total_uncertainty": r.total_uncertainty}
        for r in responses
    ]
    log["noise_floor"] = noise.total_uncertainty
    log["ranking"] = [dict(zip(_RANKING_COLUMNS, astuple(e))) for e in ranking.entries]
    return ranking, log
