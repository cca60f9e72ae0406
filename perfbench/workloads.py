"""The benchmark's three workloads and the loop that measures them.

Every iteration builds its inputs from the seed (synthesis, a CSV write
and load round trip, actors or actor processes), times the call that
produces the result, and checks that result. ``measure`` runs iterations
until the time budget is spent and reduces them to the metrics listed
in BENCHMARK.json. See README.md in this directory for why each
workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from chaincontrib import baseline, dataset, ensemble, evaluation, protocol
from chaincontrib.dataset import NOISE_ACTOR_ID, MetricSeries, SyntheticSpec
from chaincontrib.ensemble import EnsembleHyper

from spans import Recorder, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPAWN_TIMEOUT_S = 60.0
ADDITIVITY_LIMIT = 1e-3
# Seconds that one `host_unit` takes on the reference host when nothing
# else slows it; end-to-end times are given on that scale (see README).
HOST_UNIT_REF_S = 0.0108


@dataclass(frozen=True)
class Workload:
    name: str
    weights: tuple[float, ...]  # ground-truth signal weight per actor
    rows: int
    route: str  # "in-process", "sockets" or "central"
    # Below the trainer's 100-epoch patience, so every member runs exactly
    # this many epochs and the work is the same for every seed.
    max_epochs: int = 5
    instances: int = 20  # validation rows explained on the central route

    def hyper(self) -> EnsembleHyper:
        return EnsembleHyper(
            member_count=5, learning_rate=0.01, max_epochs=self.max_epochs
        )

    def spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(
            actor_count=len(self.weights),
            features_per_actor=3,
            signal_weights=self.weights,
            noise_std=0.5,
            row_count=self.rows,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("campaign-2k", (3.0, 2.0, 1.0, 0.5), 2000, "in-process"),
        Workload("sockets-2k", (3.0, 1.0), 2000, "sockets"),
        Workload("central-1k", (3.0, 2.0, 1.0, 0.5), 1000, "central"),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at test size: a few hundred rows, a few epochs."""
    return replace(workload, rows=400, max_epochs=3, instances=5)


# ------------------------------------------------------------ set-up


@dataclass
class Prepared:
    truth: dict[str, float]
    metric: MetricSeries
    actors: list
    data_dir: Path
    transform: protocol.MetricTransform | None = None
    transport: object = None
    processes: list[subprocess.Popen] = field(default_factory=list)


def _actor_env() -> dict[str, str]:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def spawn_actors(
    data_dir: Path, actor_ids: list[str], seed: int
) -> tuple[list[subprocess.Popen], list[tuple[str, int]]]:
    """Start one ``chaincontrib actor`` process per actor; wait for LISTENING."""
    processes = []
    try:
        for actor_id in actor_ids:
            command = [
                sys.executable, "-m", "chaincontrib", "actor",
                "--data", str(data_dir),
                "--actor-id", actor_id,
                "--seed", str(seed),
                "--listen", "127.0.0.1:0",
            ]
            processes.append(
                subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_actor_env())
            )
        endpoints = []
        for actor_id, proc in zip(actor_ids, processes):
            ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT_S)
            line = proc.stdout.readline().strip() if ready else ""
            if not line.startswith("LISTENING "):
                raise RuntimeError(f"actor {actor_id} did not start (got {line!r})")
            _, host, port = line.split()
            endpoints.append((host, int(port)))
    except BaseException:
        stop_processes(processes)
        raise
    return processes, endpoints


def stop_processes(processes: list[subprocess.Popen]) -> None:
    for proc in processes:
        if proc.poll() is None:
            proc.terminate()
    for proc in processes:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def prepare(workload: Workload, seed: int, workdir: Path, span) -> Prepared:
    """Everything before the timed call: synth, CSV round trip, actors."""
    datasets, metric, truth = dataset.generate_synthetic(workload.spec(seed))
    data_dir = Path(tempfile.mkdtemp(dir=workdir))
    metric_path = data_dir / "metric.csv"
    dataset.save_actor_datasets(datasets, data_dir)
    metric.to_csv(metric_path)
    prepared = Prepared(
        truth=truth,
        metric=MetricSeries.from_csv(metric_path),
        actors=dataset.load_actor_datasets(data_dir),
        data_dir=data_dir,
    )
    try:
        if workload.route == "central":
            # Mirrors the campaign's noise actor, as `run-central` does.
            prepared.actors.append(
                dataset.make_noise_actor(
                    row_count=len(prepared.metric),
                    feature_count=protocol.DEFAULT_NOISE_FEATURES,
                    part_ids=prepared.metric.part_ids,
                    seed=protocol.derive_seed(seed, NOISE_ACTOR_ID),
                )
            )
            return prepared
        values = prepared.metric.values
        scale = 1.0 / float(values.std())
        prepared.transform = protocol.MetricTransform(
            scale=scale, offset=-float(values.mean()) * scale
        )
        if workload.route == "in-process":
            prepared.transport = protocol.InProcessTransport(
                [protocol.LocalActor(dataset=ds, base_seed=seed) for ds in prepared.actors]
            )
        else:
            with span("protocol.spawn"):
                prepared.processes, endpoints = spawn_actors(
                    data_dir, [ds.actor_id for ds in prepared.actors], seed
                )
            prepared.transport = protocol.SocketTransport(endpoints)
    except BaseException:
        teardown(prepared)
        raise
    return prepared


def teardown(prepared: Prepared | None) -> None:
    if prepared is None:
        return
    stop_processes(prepared.processes)
    shutil.rmtree(prepared.data_dir, ignore_errors=True)


# ------------------------------------------------------------ result and checks


@dataclass
class Outcome:
    scalars: dict[str, float]  # must repeat exactly across iterations
    problems: list[str]
    rank_tau: float = 0.0
    declines: int = 0
    timeouts: int = 0
    instances: int = 0
    additivity_gap_max: float = 0.0


def run_result(workload: Workload, prepared: Prepared, seed: int):
    """The timed call; returns whatever `check` needs."""
    if workload.route == "central":
        model = baseline.train_central(
            prepared.actors, prepared.metric, workload.hyper(), seed=seed
        )
        report = baseline.explain_central(
            model, seed=seed, max_instances=workload.instances
        )
        return report, baseline.aggregate_company(report)
    return protocol.run_campaign(
        prepared.transport, prepared.metric, prepared.transform, workload.hyper(), seed
    )


def check(workload: Workload, prepared: Prepared, result) -> Outcome:
    """Checks that hold for every seed; the ground-truth order is not one."""
    expected = sorted([*prepared.truth, NOISE_ACTOR_ID])
    if workload.route == "central":
        report, summary = result
        problems = []
        gap = float(np.max(np.abs(report.additivity_gaps())))
        if not gap <= ADDITIVITY_LIMIT:
            problems.append(f"additivity gap {gap:.3g} above {ADDITIVITY_LIMIT}")
        if not np.all(np.isfinite(report.values)):
            problems.append("non-finite attributions")
        if sorted(summary) != expected:
            problems.append(f"summary covers {sorted(summary)}, expected {expected}")
        outcome = Outcome(
            scalars=dict(summary),
            problems=problems,
            instances=len(report.instance_ids),
            additivity_gap_max=gap,
        )
        if not problems:
            scores = {a: summary[a] for a in prepared.truth}
            outcome.rank_tau = evaluation.kendall_tau(scores, prepared.truth)
        return outcome

    ranking, log = result
    problems = []
    if log["declines"]:
        problems.append(f"declines: {log['declines']}")
    if log["timeouts"]:
        problems.append(f"timeouts: {log['timeouts']}")
    order = list(ranking.actor_order())
    if sorted(order) != expected:
        problems.append(f"ranked {order}, expected each of {expected} once")
    values = [e.total_uncertainty for e in ranking.entries]
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        problems.append(f"scalars not finite and positive: {values}")
    if values != sorted(values):
        problems.append(f"scalars not ascending: {values}")
    outcome = Outcome(
        scalars={e.actor_id: e.total_uncertainty for e in ranking.entries},
        problems=problems,
        declines=len(log["declines"]),
        timeouts=len(log["timeouts"]),
    )
    if not problems:
        scores = {a: -ranking.uncertainty_of(a) for a in prepared.truth}
        outcome.rank_tau = evaluation.kendall_tau(scores, prepared.truth)
    return outcome


# ------------------------------------------------------------ tracing


def _observe_member(original, args, kwargs, attrs):
    """Run train_member with its log on, to count epochs and steps exactly."""
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    wanted = bound.arguments["with_log"]
    bound.arguments["with_log"] = True
    member, log = original(*bound.args, **bound.kwargs)
    rows = len(bound.arguments["features"])
    hyper = bound.arguments["hyper"]
    # The trainer's chronological split: the last fraction validates.
    train_rows = rows - max(1, int(rows * hyper.validation_fraction))
    losses = [nll for _, nll in log]
    attrs["epochs"] = len(log)
    attrs["best_epoch"] = log[losses.index(min(losses))][0] if log else 0
    attrs["steps"] = len(log) * math.ceil(train_rows / hyper.batch_size)
    return (member, log) if wanted else member


def _observe_frame(original, args, kwargs, attrs):
    frame = original(*args, **kwargs)
    attrs["bytes"] = len(frame)
    return frame


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    for owner, attr, name, call in (
        (dataset, "generate_synthetic", "dataset.generate", None),
        (dataset, "save_actor_datasets", "dataset.csv_write", None),
        (dataset.MetricSeries, "to_csv", "dataset.csv_write", None),
        (dataset, "load_actor_datasets", "dataset.csv_load", None),
        (dataset.MetricSeries, "from_csv", "dataset.csv_load", None),
        (dataset.ActorDataset, "align", "dataset.align", None),
        (protocol, "train_ensemble", "ensemble.train_ensemble", None),
        (ensemble, "train_member", "ensemble.train_member", _observe_member),
        (baseline, "train_member", "ensemble.train_member", _observe_member),
        (protocol, "total_uncertainty", "ensemble.total_uncertainty", None),
        (protocol, "encode_message", "protocol.encode", _observe_frame),
        (protocol, "decode_message", "protocol.decode", None),
        (protocol.InProcessTransport, "request", "protocol.request", None),
        (protocol.SocketTransport, "request", "protocol.request", None),
        (protocol, "handle_call", "protocol.handle_call", None),
        (protocol, "run_noise_baseline", "protocol.noise_baseline", None),
        (protocol, "rank_contributions", "protocol.rank", None),
        (protocol, "run_campaign", "protocol.run_campaign", None),
        (baseline, "pool_features", "baseline.pool_features", None),
        (baseline, "train_central", "baseline.train_central", None),
        (baseline, "explain_central", "baseline.explain_central", None),
        (baseline, "kernel_shap", "baseline.kernel_shap", None),
        (baseline, "aggregate_company", "baseline.aggregate_company", None),
    ):
        recorder.patch(owner, attr, name, call)


# ------------------------------------------------------------ host speed

_HOST_RNG = np.random.default_rng(0)
_HOST_BATCH = _HOST_RNG.standard_normal((128, 12))
_HOST_W1 = _HOST_RNG.standard_normal((12, 50))
_HOST_W2 = _HOST_RNG.standard_normal((50, 2))
_HOST_ROWS = _HOST_RNG.standard_normal((2048, 17))
_HOST_MASKS = _HOST_RNG.random((2048, 17)) < 0.5
_HOST_MEAN = _HOST_RNG.standard_normal(17)
_HOST_W = _HOST_RNG.standard_normal((17, 50))
_HOST_KEYS = [f"part-{i:05d}" for i in range(2000)]


def _unit() -> None:
    for _ in range(200):  # minibatch-sized layers, as in training
        hidden = np.maximum(_HOST_BATCH @ _HOST_W1, 0.0)
        out = hidden @ _HOST_W2
        (hidden.T @ out) @ _HOST_W2.T
        np.exp(np.clip(out, -5.0, 5.0)).sum()
    for _ in range(4):  # coalition-sized arrays, as in kernel SHAP
        rows = np.where(_HOST_MASKS, _HOST_ROWS, _HOST_MEAN)
        hidden = np.maximum(rows @ _HOST_W, 0.0)
        np.linalg.lstsq(rows[:200], hidden[:200, 0], rcond=None)
    keys = set(_HOST_KEYS)  # set and dict lookups, as in pooling
    index = {key: i for i, key in enumerate(_HOST_KEYS)}
    total = 0
    for key in _HOST_KEYS * 3:
        if key in keys:
            total += index[key]


def host_unit(cpus: list[int]) -> float:
    """Mean wall time of a fixed unit of work, run once on each CPU.

    The unit mixes the kinds of work the program does: numpy on arrays
    of the sizes training and kernel SHAP use, and set and dict lookups
    in Python, as pooling does. It belongs to the benchmark, so a change
    to the program cannot change it; a slow spell of a CPU lengthens it
    as it lengthens the program there. The process's CPU affinity is put
    back afterwards.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _unit()
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


# ------------------------------------------------------------ one round


def _cpu_s() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


@dataclass
class Round:
    trace_id: int | None  # the recorder's iteration id when traced
    warmup: bool = False  # checked, but left out of every timing
    setup_s: float = 0.0
    result_s: float = 0.0
    cpu_s: float = 0.0
    actor_cpu_s: float = 0.0
    wall_s: float = 0.0
    host_s: float = 0.0  # mean host_unit time just before and just after
    outcome: Outcome | None = None
    problems: list[str] = field(default_factory=list)


def run_round(
    workload: Workload,
    seed: int,
    workdir: Path,
    recorder: Recorder | None = None,
) -> Round:
    """Set up, run and check the result, tear down."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext({}))
    cpu0, kids0 = _cpu_s(), _children_cpu_s()
    t0 = time.perf_counter()
    prepared = None
    round_ = Round(trace_id=recorder.iteration if recorder else None)
    try:
        with span("iteration"):
            try:
                with span("setup"):
                    prepared = prepare(workload, seed, workdir, span)
                t1 = time.perf_counter()
                round_.setup_s = t1 - t0
                try:
                    with span("result"):
                        result = run_result(workload, prepared, seed)
                finally:
                    round_.result_s = time.perf_counter() - t1
                round_.outcome = check(workload, prepared, result)
                round_.problems = list(round_.outcome.problems)
            finally:
                teardown(prepared)
    except Exception:  # one failed iteration must not end the run
        round_.problems.append(traceback.format_exc())
    round_.wall_s = time.perf_counter() - t0
    round_.cpu_s = _cpu_s() - cpu0
    round_.actor_cpu_s = _children_cpu_s() - kids0
    return round_


# ------------------------------------------------------------ the run


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


@dataclass
class Run:
    rounds: list[Round]
    recorder: Recorder | None

    def iterations(self, traced: bool) -> list[Round]:
        """The timed iterations, warm-up left out, traced or untraced."""
        return [
            r for r in self.rounds if not r.warmup and (r.trace_id is not None) == traced
        ]

    @property
    def attempted(self) -> int:
        return len(self.rounds)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rounds if r.problems)

    @property
    def correct(self) -> bool:
        return not self.failed


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    workdir: Path,
) -> Run:
    """A warm-up iteration, then iterations until one more would go past
    ``seconds``, counted from the start of the warm-up.

    Every iteration uses the seed's dataset and must return the scalars
    of the first one. A traced run alternates untraced and traced
    iterations, at least one of each, so that tracing overhead is
    measured in the same process. ``host_unit`` runs before the first
    iteration and after each one, on the CPUs the workload uses.
    """
    allowed = os.sched_getaffinity(0)
    if workload.route == "sockets":
        # The actor processes may run on any CPU.
        cpus = sorted(allowed)
    else:
        # The in-process work and the host unit that scales it share one CPU.
        cpus = [min(allowed)]
        os.sched_setaffinity(0, set(cpus))
    try:
        return _measure(workload, seed, seconds, traced, workdir, cpus)
    finally:
        os.sched_setaffinity(0, allowed)


def _measure(workload, seed, seconds, traced, workdir, cpus) -> Run:
    recorder = Recorder() if traced else None
    start = time.perf_counter()
    rounds: list[Round] = []
    first: dict[str, float] | None = None
    count = 0
    before = host_unit(cpus)
    while True:
        warmup = not rounds
        trace_this = traced and not warmup and count % 2 == 1
        try:
            if trace_this:
                recorder.iteration = count
                install(recorder)
            round_ = run_round(workload, seed, workdir, recorder if trace_this else None)
        finally:
            if recorder is not None:
                recorder.restore()
        after = host_unit(cpus)
        round_.host_s = (before + after) / 2.0
        before = after
        round_.warmup = warmup
        if round_.outcome is not None and not round_.outcome.problems:
            if first is None:
                first = round_.outcome.scalars
            elif round_.outcome.scalars != first:
                round_.problems.append(
                    f"scalars {round_.outcome.scalars} differ from the "
                    f"first iteration's {first}"
                )
        rounds.append(round_)
        label = "warm-up" if warmup else f"iteration {count + 1}"
        print(
            f"{workload.name} {label} traced={int(trace_this)} "
            f"setup_s={round_.setup_s:.4f} result_s={round_.result_s:.4f} "
            f"cpu_s={round_.cpu_s:.4f} host_s={round_.host_s:.5f}",
            file=sys.stderr,
        )
        for problem in round_.problems:
            print(f"{workload.name} {label}: {problem}", file=sys.stderr)
        if warmup:
            continue
        count += 1
        owed = traced and count < 2
        elapsed = time.perf_counter() - start
        if not owed and elapsed + round_.wall_s > seconds:
            return Run(rounds=rounds, recorder=recorder)


def _host_scaled(rounds: list[Round], name: str) -> float:
    """Median over iterations of a time in host units, given in seconds."""
    return HOST_UNIT_REF_S * _median(getattr(r, name) / r.host_s for r in rounds)


def end_to_end(run: Run) -> dict[str, float]:
    """Times are host-scaled medians over the untraced iterations."""
    untraced = run.iterations(traced=False)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "result_s": _host_scaled(untraced, "result_s"),
        "setup_s": _host_scaled(untraced, "setup_s"),
        "cpu_s": _host_scaled(untraced, "cpu_s"),
        "peak_rss_mb": max(own, kids) / 1024.0,  # ru_maxrss is in KiB on Linux
        "success_rate": 1.0 - run.failed / run.attempted,
    }


def timing_summary(run: Run) -> dict[str, dict[str, float]]:
    """Percentiles of the untraced iterations' plain times, in seconds."""
    untraced = run.iterations(traced=False)
    return {
        name: {
            f"p{q}": _percentile((getattr(r, name) for r in untraced), q)
            for q in (10, 50, 90)
        }
        | {"n": len(untraced)}
        for name in ("setup_s", "result_s", "cpu_s", "host_s")
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer numbers from the traced iterations (median when several)."""
    traced = run.iterations(traced=True)
    rows = [_layer_row(run.recorder.spans, r) for r in traced]
    values = {name: _median(row[name] for row in rows) for name in rows[0]}
    untraced = run.iterations(traced=False)
    values["trace.overhead_s"] = _median(r.result_s for r in traced) - _median(
        r.result_s for r in untraced
    )
    return values


def _layer_row(all_spans, round_: Round) -> dict[str, float]:
    spans = [s for s in all_spans if s.iteration == round_.trace_id]
    selfs = self_times(spans)

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def total(name):
        return sum(durations(name))

    def self_total(name):
        return sum(selfs[s.span_id] for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    ensembles = durations("ensemble.train_ensemble")
    shap_ms = [1e3 * d for d in durations("baseline.kernel_shap")]
    epochs = attr_sum("ensemble.train_member", "epochs")
    steps = attr_sum("ensemble.train_member", "steps")
    waste = sum(
        s.attrs["epochs"] - s.attrs["best_epoch"]
        for s in spans
        if s.name == "ensemble.train_member" and "epochs" in s.attrs
    )
    frames = [s.attrs.get("bytes", 0) for s in spans if s.name == "protocol.encode"]
    outcome = round_.outcome or Outcome(scalars={}, problems=[])
    return {
        "dataset.generate_s": total("dataset.generate"),
        "dataset.csv_write_s": total("dataset.csv_write"),
        "dataset.csv_load_s": total("dataset.csv_load"),
        "dataset.align_s": total("dataset.align"),
        "ensemble.train_ensemble_s.p50": _percentile(ensembles, 50),
        "ensemble.train_ensemble_s.max": max(ensembles, default=0.0),
        "ensemble.train_ensemble_s.count": len(ensembles),
        "ensemble.train_member_s": _percentile(durations("ensemble.train_member"), 50),
        "ensemble.total_uncertainty_s": total("ensemble.total_uncertainty"),
        "ensemble.member_epochs": epochs,
        "ensemble.member_steps": steps,
        "ensemble.step_us": 1e6 * total("ensemble.train_member") / steps if steps else 0.0,
        "ensemble.patience_waste": waste / epochs if epochs else 0.0,
        "protocol.spawn_s": total("protocol.spawn"),
        "protocol.encode_s": total("protocol.encode"),
        "protocol.decode_s": total("protocol.decode"),
        "protocol.call_frame_bytes": max(frames, default=0),
        "protocol.request_s": total("protocol.request"),
        "protocol.handle_call_s": self_total("protocol.handle_call"),
        "protocol.noise_baseline_s": total("protocol.noise_baseline"),
        "protocol.rank_s": total("protocol.rank"),
        "protocol.actor_cpu_s": round_.actor_cpu_s,
        "protocol.declines": outcome.declines,
        "protocol.timeouts": outcome.timeouts,
        "baseline.pool_features_s": total("baseline.pool_features"),
        "baseline.train_central_s": self_total("baseline.train_central"),
        "baseline.explain_central_s": total("baseline.explain_central"),
        "baseline.kernel_shap_ms.p50": _percentile(shap_ms, 50),
        "baseline.kernel_shap_ms.p90": _percentile(shap_ms, 90),
        "baseline.instances": outcome.instances,
        "baseline.additivity_gap_max": outcome.additivity_gap_max,
        "evaluation.rank_tau": outcome.rank_tau,
    }


def report(run: Run) -> dict:
    """The result line: every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if run.recorder is not None:
        listed, values = spec["per_layer"], per_layer(run)
    else:
        listed, values = spec["end_to_end"], end_to_end(run)
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
