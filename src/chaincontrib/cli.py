"""Command-line orchestration: ingest, synthesise, run both estimation
routes, and compare them.

One JSON config file drives every command. Each config section is built
straight from its dataclass, whose fields are the allowed keys, whose
defaults are the only defaults and whose ``__post_init__`` converts and
range-checks every field; unknown keys and malformed values anywhere are
rejected before any computation starts. The --seed,
--transport and --out flags replace the matching top-level values
before the config is parsed, so ``synth`` follows --seed too.

Both routes see one set-up, owned by ``protocol``: the campaign rescales
the metric with ``MetricTransform.unit_spread``, and both routes get
their noise actor from ``protocol.noise_actor``, so ``run-central`` pools
the actor the campaign ranks as its floor and ``compare`` can follow it.

Exit codes: 0 success, 2 config or validation failure, 3 campaign
failure (every actor declined, unreachable endpoints, wire errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from chaincontrib.baseline import (
    DEFAULT_BACKGROUND_SIZE,
    DEFAULT_SAMPLE_COUNT,
    explain_central,
    pooled_width,
    read_shap_summary,
    require_sample_count,
    train_central,
    write_shap_csvs,
)
from chaincontrib.dataset import (
    DEFAULT_MISSING_THRESHOLD,
    ActorDataset,
    MetricSeries,
    ParseError,
    SyntheticSpec,
    build_metric_series,
    clean_measurements,
    generate_synthetic,
    list_actor_ids,
    load_actor_dataset,
    load_actor_datasets,
    load_csv,
    parse_json,
    partition_actors,
    require_file_name,
    require_int,
    require_real,
    require_text,
    require_unique,
    save_actor_datasets,
    write_json,
)
from chaincontrib.ensemble import EnsembleHyper
from chaincontrib.evaluation import build_comparison, emit_report
from chaincontrib.protocol import (
    DEFAULT_DEADLINE,
    DEFAULT_MIN_OVERLAP,
    DEFAULT_NOISE_FEATURES,
    DEFAULT_SLACK,
    ActorServer,
    CampaignError,
    ContributionRanking,
    DecodeError,
    InProcessTransport,
    LocalActor,
    MetricTransform,
    SocketTransport,
    noise_actor,
    require_deadline,
    run_campaign,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _section(cls, name: str, raw):
    """Build the dataclass ``cls`` from one config section.

    The dataclass is the schema: its fields are the allowed keys, its
    defaults the only defaults and its ``__post_init__`` the only check,
    so only the keys present are passed on. Any failure to build the
    section becomes a ConfigError that names it.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {', '.join(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{name} section invalid: {exc}") from exc


def _set(section, **values) -> None:
    # Store converted values on a frozen section.
    for name, value in values.items():
        object.__setattr__(section, name, value)


def _path(value) -> Path | None:
    return None if value is None else Path(value)


def _positive(name: str, value) -> float:
    real = require_real(name, value)
    if not real > 0:
        raise ValueError(f"{name} must be positive, got {real!r}")
    return real


def _names(name: str, value) -> tuple[str, ...]:
    # tuple() of one string would split it into letters.
    if isinstance(value, str):
        raise TypeError(f"{name}: expected a list of column names, got {value!r}")
    return require_unique(name, tuple(require_text(name, v) for v in value))


@dataclass(frozen=True)
class DataConfig:
    input_csv: Path | None = None
    id_column: str = "part_id"
    actor_schema: dict[str, str] = field(default_factory=dict)
    shared_columns: tuple[str, ...] = ()
    measurement_columns: tuple[str, ...] = ()
    setpoints: dict[str, float] | None = None
    column_missing_threshold: float = DEFAULT_MISSING_THRESHOLD
    actor_dir: Path | None = None
    metric_csv: Path | None = None

    def __post_init__(self) -> None:
        threshold = require_real("column_missing_threshold", self.column_missing_threshold)
        # The range clean_measurements accepts, checked before any file is read.
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"column_missing_threshold must be in (0, 1], got {threshold!r}")
        setpoints = self.setpoints
        if setpoints is not None:
            setpoints = {
                require_text("setpoints", k): _positive("setpoints", v)
                for k, v in setpoints.items()
            }
        _set(
            self,
            input_csv=_path(self.input_csv),
            id_column=require_text("id_column", self.id_column),
            # Each actor id names that actor's file in the output directory.
            actor_schema={
                require_text("actor_schema", k): require_file_name("actor_schema", v)
                for k, v in self.actor_schema.items()
            },
            shared_columns=_names("shared_columns", self.shared_columns),
            measurement_columns=_names("measurement_columns", self.measurement_columns),
            setpoints=setpoints,
            column_missing_threshold=threshold,
            actor_dir=_path(self.actor_dir),
            metric_csv=_path(self.metric_csv),
        )


@dataclass(frozen=True)
class CampaignConfig:
    deadline: float = DEFAULT_DEADLINE
    noise_feature_count: int = DEFAULT_NOISE_FEATURES
    slack: float = DEFAULT_SLACK
    min_overlap: int = DEFAULT_MIN_OVERLAP

    def __post_init__(self) -> None:
        require_int("noise_feature_count", self.noise_feature_count, least=1)
        require_int("min_overlap", self.min_overlap, least=0)
        _set(self, deadline=require_deadline(self.deadline), slack=_positive("slack", self.slack))


@dataclass(frozen=True)
class CentralConfig:
    sample_count: int = DEFAULT_SAMPLE_COUNT
    background_size: int = DEFAULT_BACKGROUND_SIZE
    max_instances: int | None = None

    def __post_init__(self) -> None:
        # 2d + 2 coalitions at the least pooled width, d = 1.
        require_int("sample_count", self.sample_count, least=4)
        require_int("background_size", self.background_size, least=1)
        if self.max_instances is not None:
            require_int("max_instances", self.max_instances, least=1)


@dataclass(frozen=True)
class CompareConfig:
    ranking: Path | None = None
    shap_summary: Path | None = None

    def __post_init__(self) -> None:
        _set(self, ranking=_path(self.ranking), shap_summary=_path(self.shap_summary))


TRANSPORTS = ("in-process", "sockets")


@dataclass(frozen=True)
class RunConfig:
    """All knobs for one experiment, resolved and validated."""

    seed: int = 0
    out: Path = Path("runs/latest")
    transport: str = "in-process"
    data: DataConfig = field(default_factory=DataConfig)
    synth: SyntheticSpec | None = None
    hyper: EnsembleHyper = field(default_factory=EnsembleHyper)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    central: CentralConfig = field(default_factory=CentralConfig)
    compare: CompareConfig = field(default_factory=CompareConfig)

    def __post_init__(self) -> None:
        require_int("seed", self.seed, least=0)
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        _set(self, out=Path(self.out))

    @property
    def actor_dir(self) -> Path:
        return self.data.actor_dir or self.out / "data"

    @property
    def metric_path(self) -> Path:
        return self.data.metric_csv or self.actor_dir / "metric.csv"


# The nested sections of a config, each built from its own dataclass.
SECTIONS = {
    "data": DataConfig,
    "synth": SyntheticSpec,
    "hyper": EnsembleHyper,
    "campaign": CampaignConfig,
    "central": CentralConfig,
    "compare": CompareConfig,
}


def parse_config(raw: Mapping, args: argparse.Namespace | None = None) -> RunConfig:
    """Validate a whole config; the --seed/--out/--transport flags win."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config section 'top level' must be an object")
    if args is not None:
        flags = {k: getattr(args, k, None) for k in ("seed", "out", "transport")}
        raw = {**raw, **{k: v for k, v in flags.items() if v is not None}}
    # The top level first: the synth section inherits its seed, and a bad
    # seed is the top level's error.
    top = _section(RunConfig, "top level", {k: v for k, v in raw.items() if k not in SECTIONS})
    sections = {}
    for name, section in raw.items():
        if name in SECTIONS:
            if name == "synth" and isinstance(section, Mapping):
                # The synthetic data follow the run's seed unless they set their own.
                section = {"seed": top.seed, **section}
            sections[name] = _section(SECTIONS[name], name, section)
    return dataclasses.replace(top, **sections)


# -------------------------------------------------------------------- commands


def _write_inputs(
    config: RunConfig, datasets: Sequence[ActorDataset], series: MetricSeries
) -> None:
    """Save a run's actor datasets and metric series where the config says."""
    save_actor_datasets(datasets, config.actor_dir)
    config.metric_path.parent.mkdir(parents=True, exist_ok=True)
    series.to_csv(config.metric_path)
    print(f"wrote {len(datasets)} actor datasets to {config.actor_dir}")
    print(f"wrote metric series ({len(series)} rows) to {config.metric_path}")


def cmd_synth(config: RunConfig) -> int:
    if config.synth is None:
        raise ConfigError("synth command requires a synth section in the config")
    datasets, series, truth = generate_synthetic(config.synth)
    _write_inputs(config, datasets, series)
    truth_path = config.actor_dir / "truth.json"
    write_json(truth_path, {k: float(v) for k, v in truth.items()})
    print(f"wrote ground truth to {truth_path}")
    return 0


def cmd_ingest(config: RunConfig) -> int:
    data = config.data
    if data.input_csv is None:
        raise ConfigError("ingest requires data.input_csv")
    if not data.actor_schema:
        raise ConfigError("ingest requires data.actor_schema")
    if not data.measurement_columns:
        raise ConfigError("ingest requires data.measurement_columns")
    features = {*data.actor_schema, *data.shared_columns}
    both = [c for c in data.measurement_columns if c in features]
    if both:
        raise ConfigError(f"columns both measured and used as features: {both}")

    table = load_csv(data.input_csv, data.id_column)
    cleaned = clean_measurements(
        table, data.measurement_columns, data.column_missing_threshold
    )
    dropped_columns = [c for c in table.columns if c not in cleaned.columns]
    print(f"dropped measurement columns: {len(dropped_columns)}")
    for c in dropped_columns:
        missing = int(round(table.missing_fraction(c) * table.n_rows))
        print(f"  {c}: {missing} of {table.n_rows} values missing")

    measured = [c for c in data.measurement_columns if c in cleaned.columns]
    companions = [] if data.setpoints is not None else [f"{c}.Setpoint" for c in measured]
    feature_columns = [c for c in cleaned.columns if c in features]
    if not feature_columns:
        raise ConfigError("actor_schema matches no columns in the cleaned table")

    # A row missing a setpoint or a feature value leaves here, before the
    # metric is built, so the metric and the datasets cover the same parts.
    setpoint_gap = np.isnan(cleaned.select(companions).values).any(axis=1)
    feature_gap = np.isnan(cleaned.select(feature_columns).values).any(axis=1)
    feature_gap &= ~setpoint_gap
    keep = ~(setpoint_gap | feature_gap)
    dropped_rows = table.n_rows - cleaned.n_rows + int(setpoint_gap.sum())
    print(f"dropped rows with missing measurements: {dropped_rows}")
    if feature_gap.any():
        print(f"dropped rows with missing feature values: {int(feature_gap.sum())}")

    series = build_metric_series(
        cleaned.select(measured + companions, keep), measured, data.setpoints
    )
    datasets = partition_actors(
        cleaned.select(feature_columns, keep), data.actor_schema, data.shared_columns
    )
    _write_inputs(config, datasets, series)
    return 0


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"--listen expects host:port with port 0-65535, got {value!r}")
    return host, int(port)


# Seconds the socket route waits, in all, for its actors' LISTENING lines.
SPAWN_TIMEOUT_S = 60.0
# The actors share this host: one BLAS thread each, unless the caller set one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _actor_command(
    actor_dir: Path, actor_id: str, seed: int, min_overlap: int
) -> list[str]:
    return [
        sys.executable,
        "-m",
        "chaincontrib",
        "actor",
        "--data",
        str(actor_dir),
        "--actor-id",
        actor_id,
        "--seed",
        str(seed),
        "--listen",
        "127.0.0.1:0",
        "--min-overlap",
        str(min_overlap),
    ]


def _spawn_actors(
    config: RunConfig, actor_ids: Sequence[str], processes: list[subprocess.Popen]
) -> list[tuple[str, int]]:
    """Start every actor process at once, then read each one's address.

    Each started process is appended to ``processes`` straight away, so
    the caller stops all of them when any fails or stays silent.
    """
    env = {var: "1" for var in BLAS_THREAD_VARS} | dict(os.environ)
    for actor_id in actor_ids:
        command = _actor_command(
            config.actor_dir, actor_id, config.seed, config.campaign.min_overlap
        )
        processes.append(subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env))
    give_up = time.monotonic() + SPAWN_TIMEOUT_S
    endpoints = []
    for actor_id, proc in zip(actor_ids, processes):
        wait = max(0.0, give_up - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], wait)
        line = proc.stdout.readline().strip() if ready else ""
        if not line.startswith("LISTENING "):
            raise CampaignError(f"actor {actor_id} failed to start (got {line!r})")
        _, host, port = line.split()
        endpoints.append((host, int(port)))
    return endpoints


def cmd_run_decentralised(config: RunConfig) -> int:
    out = config.out / "decentralised"
    ranking_path, log_path = out / "ranking.csv", out / "campaign_log.json"
    # A failed run must not leave an earlier run's results for compare.
    for path in (ranking_path, log_path):
        path.unlink(missing_ok=True)
    metric = MetricSeries.from_csv(config.metric_path)
    transform = MetricTransform.unit_spread(metric)
    out.mkdir(parents=True, exist_ok=True)
    cc = config.campaign

    processes: list[subprocess.Popen] = []
    try:
        if config.transport == "in-process":
            actors = [
                LocalActor(dataset=ds, base_seed=config.seed, min_overlap=cc.min_overlap)
                for ds in load_actor_datasets(config.actor_dir)
            ]
            transport = InProcessTransport(actors)
        else:
            # Each actor process reads its own file; the coordinator reads
            # only the actor ids in the manifest.
            endpoints = _spawn_actors(config, list_actor_ids(config.actor_dir), processes)
            transport = SocketTransport(endpoints)

        ranking, log = run_campaign(
            transport,
            metric,
            transform,
            config.hyper,
            config.seed,
            deadline=cc.deadline,
            noise_feature_count=cc.noise_feature_count,
            slack=cc.slack,
        )
    except CampaignError as exc:
        # A failed campaign still records its declines and timeouts.
        if exc.log is not None:
            write_json(log_path, exc.log)
            print(f"wrote {log_path}")
        raise
    finally:
        for proc in processes:
            proc.terminate()
        for proc in processes:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    ranking.to_csv(ranking_path)
    write_json(log_path, log)
    print(f"ranked {len(ranking.entries)} actors (noise floor {ranking.noise_floor:.6g})")
    if log["declines"]:
        print(f"declined: {', '.join(log['declines'])}")
    if log["timeouts"]:
        print(f"timeouts: {len(log['timeouts'])}")
    print(f"wrote {ranking_path}")
    print(f"wrote {log_path}")
    return 0


def cmd_run_central(config: RunConfig) -> int:
    datasets = load_actor_datasets(config.actor_dir)
    metric = MetricSeries.from_csv(config.metric_path)
    # The campaign's noise reference, so both routes cover one actor set.
    datasets.append(noise_actor(metric, config.seed, config.campaign.noise_feature_count))
    # The attribution budget depends only on the pooled width: refuse a
    # too-small one before training, not after.
    require_sample_count(config.central.sample_count, pooled_width(datasets))
    model = train_central(datasets, metric, config.hyper, seed=config.seed)
    report = explain_central(
        model,
        sample_count=config.central.sample_count,
        seed=config.seed,
        background_size=config.central.background_size,
        max_instances=config.central.max_instances,
    )
    out = config.out / "central"
    values_path, summary_path = write_shap_csvs(report, out)
    print(
        f"explained {len(report.instance_ids)} validation rows over "
        f"{len(report.feature_names)} features"
    )
    print(f"wrote {values_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_compare(config: RunConfig) -> int:
    ranking_path = config.compare.ranking or config.out / "decentralised" / "ranking.csv"
    summary_path = config.compare.shap_summary or config.out / "central" / "shap_summary.csv"
    ranking = ContributionRanking.from_csv(ranking_path)
    shap_scores = read_shap_summary(summary_path)
    report = build_comparison(ranking, shap_scores)
    out = config.out / "comparison"
    paths = emit_report(report, out)
    print(f"kendall_tau={report.kendall:.4f} spearman_rho={report.spearman:.4f}")
    print(f"noise_contrast={report.noise_contrast:.4f}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_actor(args: argparse.Namespace) -> int:
    host, port = _parse_listen(args.listen)
    actor = LocalActor(
        load_actor_dataset(Path(args.data), args.actor_id),
        base_seed=args.seed,
        min_overlap=args.min_overlap,
    )
    with ActorServer(actor, host=host, port=port) as server:
        bound_host, bound_port = server.address
        print(f"LISTENING {bound_host} {bound_port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


# ------------------------------------------------------------------ interface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincontrib",
        description=(
            "Estimate per-actor contributions to an end-of-line quality "
            "metric, without pooling raw data, and benchmark the result "
            "against a centralised attribution model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--transport",
            choices=TRANSPORTS,
            default=None,
            help="override config transport",
        )
        p.add_argument("--out", default=None, help="override config output directory")

    add_common(sub.add_parser("ingest", help="clean a raw CSV into per-actor datasets"))
    add_common(sub.add_parser("synth", help="generate a synthetic multi-actor dataset"))
    add_common(
        sub.add_parser(
            "run-decentralised", help="run an uncertainty campaign and rank actors"
        )
    )
    add_common(
        sub.add_parser(
            "run-central", help="train the pooled model and attribute features"
        )
    )
    add_common(sub.add_parser("compare", help="compare the two contribution rankings"))

    actor = sub.add_parser("actor", help="serve one actor dataset over a socket")
    actor.add_argument("--data", required=True, help="directory of actor datasets")
    actor.add_argument("--actor-id", required=True)
    actor.add_argument("--seed", type=int, required=True)
    actor.add_argument("--listen", required=True, help="host:port (port 0 = ephemeral)")
    actor.add_argument("--min-overlap", type=int, default=DEFAULT_MIN_OVERLAP)
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "run-decentralised": cmd_run_decentralised,
    "run-central": cmd_run_central,
    "compare": cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "actor":
            return cmd_actor(args)
        path = Path(args.config)
        try:
            raw = parse_json(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        config = parse_config(raw, args)
        return COMMANDS[args.command](config)
    except CampaignError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 3
    except DecodeError as exc:
        print(f"wire protocol failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ParseError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
