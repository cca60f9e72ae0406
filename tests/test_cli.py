"""End-to-end command tests: config validation, every subcommand, both
transports, and the documented exit codes (0 ok, 2 validation, 3 campaign).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from chaincontrib import cli
from chaincontrib.cli import main, parse_config
from chaincontrib.dataset import NOISE_ACTOR_ID, MetricSeries, SyntheticSpec
from chaincontrib.ensemble import EnsembleHyper
from chaincontrib.protocol import ContributionRanking

FAST_HYPER = {
    "member_count": 2,
    "hidden_size": 12,
    "batch_size": 32,
    "patience_epochs": 15,
    "max_epochs": 120,
    "learning_rate": 0.01,
}


def write_config(tmp_path: Path, name: str = "config.json", **overrides) -> Path:
    config = {
        "seed": 3,
        "out": str(tmp_path / "run"),
        "transport": "in-process",
        "synth": {
            "actor_count": 3,
            "features_per_actor": 3,
            "signal_weights": [3.0, 1.0, 0.2],
            "noise_std": 0.5,
            "row_count": 400,
        },
        "hyper": dict(FAST_HYPER),
        "campaign": {"noise_feature_count": 4},
        "central": {"sample_count": 96, "background_size": 40, "max_instances": 10},
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def run(*argv: str) -> int:
    return main(list(argv))


# ---------------------------------------------------------------- validation


def test_unknown_top_level_key_rejected(tmp_path) -> None:
    path = write_config(tmp_path, mystery=1)
    assert run("synth", "--config", str(path)) == 2


def test_unknown_nested_key_rejected(tmp_path, capsys) -> None:
    path = write_config(tmp_path, campaign={"slckk": 2.0})
    assert run("synth", "--config", str(path)) == 2
    # Members train without dropout, so a config that still sets it is refused.
    path = write_config(tmp_path, hyper={**FAST_HYPER, "dropout_rate": 0.0})
    capsys.readouterr()
    assert run("synth", "--config", str(path)) == 2
    assert capsys.readouterr().err == "error: unknown keys in hyper: dropout_rate\n"


def test_invalid_synth_spec_exits_two(tmp_path) -> None:
    path = write_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["synth"]["actor_count"] = 1
    path.write_text(json.dumps(raw))
    assert run("synth", "--config", str(path)) == 2


def test_invalid_transport_rejected(tmp_path) -> None:
    path = write_config(tmp_path, transport="carrier-pigeon")
    assert run("synth", "--config", str(path)) == 2


def test_missing_config_file_exits_two(tmp_path) -> None:
    assert run("synth", "--config", str(tmp_path / "absent.json")) == 2


def test_malformed_json_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("synth", "--config", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: Expecting property name")


@pytest.mark.parametrize("key", ["seed", "noise_std"])
def test_config_repeating_a_key_exits_two(tmp_path, capsys, key) -> None:
    path = write_config(tmp_path)
    # Plain JSON would keep the last value, 11.
    text = path.read_text()
    path.write_text(text.replace(f'"{key}": ', f'"{key}": 11, "{key}": ', 1))
    assert run("synth", "--config", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: key '{key}' appears more than once\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("hyper", "learning_rate", True),
        ("hyper", "member_count", "5"),
        ("hyper", "hidden_size", 2.5),
        ("data", "setpoints", [1, 2]),
        ("data", "actor_schema", [1]),
        ("top level", "seed", 7.9),
        ("top level", "seed", True),
        ("top level", "seed", -1),
        ("campaign", "min_overlap", 2.5),
        ("campaign", "noise_feature_count", 4.0),
        ("central", "sample_count", True),
        ("central", "background_size", 40.5),
        ("central", "background_size", 0),
        ("central", "max_instances", 3.7),
        ("central", "max_instances", -3),
        ("hyper", "learning_rate", int("9" * 400)),
        ("hyper", "validation_fraction", False),
        ("campaign", "deadline", "5"),
        ("campaign", "slack", True),
        ("data", "setpoints", {"m1": True}),
        ("data", "shared_columns", "Temp"),
        ("data", "measurement_columns", "m1"),
        ("data", "id_column", None),
        ("data", "actor_schema", {"Temp": None}),
        ("data", "shared_columns", [1, 2.5]),
        ("data", "measurement_columns", ["m1", 3]),
        ("synth", "signal_weights", "321"),
        ("synth", "row_count", 300.5),
        ("synth", "features_per_actor", 2.5),
    ],
)
def test_malformed_section_value_exits_two(tmp_path, capsys, section, key, value) -> None:
    raw = json.loads(write_config(tmp_path).read_text())
    (raw if section == "top level" else raw.setdefault(section, {}))[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run("synth", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section} section invalid")
    assert "Traceback" not in err


# Every field annotated ``float`` in a config section's dataclass, so that
# a float field added later is held to the same rule.
FLOAT_FIELDS = [
    (section, f.name)
    for section, cls in (
        ("hyper", EnsembleHyper),
        ("synth", SyntheticSpec),
        ("campaign", cli.CampaignConfig),
        ("data", cli.DataConfig),
    )
    for f in dataclasses.fields(cls)
    if f.type in ("float", float)
]


@pytest.mark.parametrize(("section", "key"), FLOAT_FIELDS)
def test_float_field_rejects_a_boolean(tmp_path, section, key) -> None:
    raw = json.loads(write_config(tmp_path).read_text())
    raw.setdefault(section, {})[key] = True
    with pytest.raises(cli.ConfigError, match=key):
        parse_config(raw)


# Every config section's dataclass, by the name its errors carry.
SECTION_TYPES = {"top level": cli.RunConfig, **cli.SECTIONS}


def section_fields(*types) -> list[tuple[str, str]]:
    return [
        (section, f.name)
        for section, cls in SECTION_TYPES.items()
        for f in dataclasses.fields(cls)
        if f.type in types
    ]


# The least value of every integer field. A field missing here fails its
# case below, so that an integer field added later gets a bound too.
LEAST = {
    ("top level", "seed"): 0,
    ("synth", "actor_count"): 2,
    ("synth", "features_per_actor"): 1,
    ("synth", "row_count"): 200,
    ("synth", "seed"): 0,
    ("hyper", "member_count"): 2,
    ("hyper", "hidden_size"): 1,
    ("hyper", "batch_size"): 1,
    ("hyper", "patience_epochs"): 1,
    ("hyper", "max_epochs"): 1,
    ("campaign", "noise_feature_count"): 1,
    ("campaign", "min_overlap"): 0,
    ("central", "sample_count"): 4,
    ("central", "background_size"): 1,
    ("central", "max_instances"): 1,
}
INT_FIELDS = section_fields("int", "int | None")
PATH_FIELDS = section_fields("Path", "Path | None")


@pytest.mark.parametrize(("section", "key"), INT_FIELDS)
def test_integer_field_rejects_a_value_below_its_least(tmp_path, section, key) -> None:
    raw = json.loads(write_config(tmp_path).read_text())
    (raw if section == "top level" else raw.setdefault(section, {}))[key] = LEAST[section, key] - 1
    with pytest.raises(cli.ConfigError, match=f"^{section} section invalid: {key} must be at least"):
        parse_config(raw)


# Arguments that build each section directly; the others need none.
REQUIRED = {
    "synth": {
        "actor_count": 2,
        "features_per_actor": 1,
        "signal_weights": (1.0, 0.5),
        "noise_std": 0.5,
        "row_count": 200,
    }
}


def build(section: str, key: str, value):
    return SECTION_TYPES[section](**{**REQUIRED.get(section, {}), key: value})


@pytest.mark.parametrize(("section", "key"), INT_FIELDS)
def test_section_type_holds_each_integer_to_its_least(section, key) -> None:
    assert getattr(build(section, key, LEAST[section, key]), key) == LEAST[section, key]
    with pytest.raises(ValueError, match=f"{key} must be at least"):
        build(section, key, LEAST[section, key] - 1)


@pytest.mark.parametrize(("section", "key"), section_fields("float"))
def test_section_type_rejects_a_boolean_float(section, key) -> None:
    with pytest.raises(TypeError, match=key):
        build(section, key, True)


@pytest.mark.parametrize(("section", "key"), PATH_FIELDS)
def test_section_type_converts_a_path_and_rejects_a_number(section, key) -> None:
    assert getattr(build(section, key, "runs/x"), key) == Path("runs/x")
    with pytest.raises(TypeError):
        build(section, key, 5)


def test_readme_minimal_config_parses() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"A minimal synthetic experiment:\s*```json\n(.*?)```", readme, re.S)
    config = parse_config(json.loads(block.group(1)))
    assert config.seed == config.synth.seed == 7
    assert config.hyper.member_count == 5


def test_readme_table_lists_every_config_field() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `?([a-z ]+?)`? \| `(\w+)` \|", readme, re.M)
    assert sorted(listed) == sorted(
        (section, f.name)
        for section, cls in SECTION_TYPES.items()
        for f in dataclasses.fields(cls)
        if f.name not in SECTION_TYPES
    )


def test_hyper_overrides_reach_parsed_config(tmp_path) -> None:
    path = write_config(tmp_path)
    config = parse_config(json.loads(path.read_text()))
    assert config.hyper.member_count == 2
    assert config.hyper.learning_rate == pytest.approx(0.01)
    # Untouched fields keep their defaults.
    assert config.hyper.validation_fraction == pytest.approx(0.2)


def test_cli_flags_override_config(tmp_path) -> None:
    path = write_config(tmp_path)
    out_dir = tmp_path / "elsewhere"
    assert run("synth", "--config", str(path), "--seed", "9", "--out", str(out_dir)) == 0
    assert (out_dir / "data" / "manifest.json").exists()


def test_seed_flag_reaches_synth(tmp_path) -> None:
    flagged = write_config(tmp_path, name="flagged.json", out=str(tmp_path / "flag"))
    seeded = write_config(tmp_path, name="seeded.json", out=str(tmp_path / "cfg"), seed=9)
    assert run("synth", "--config", str(flagged), "--seed", "9") == 0
    assert run("synth", "--config", str(seeded)) == 0
    for name in ("actor-1.csv", "actor-3.csv", "metric.csv", "manifest.json"):
        assert (tmp_path / "flag" / "data" / name).read_bytes() == (
            tmp_path / "cfg" / "data" / name
        ).read_bytes()


# --------------------------------------------------------------------- synth


def test_synth_writes_datasets_truth_and_metric(tmp_path) -> None:
    path = write_config(tmp_path)
    assert run("synth", "--config", str(path)) == 0
    data = tmp_path / "run" / "data"
    for k in (1, 2, 3):
        assert (data / f"actor-{k}.csv").exists()
    assert (data / "manifest.json").exists()
    assert (data / "metric.csv").exists()
    truth = json.loads((data / "truth.json").read_text())
    assert truth == {"actor-1": 3.0, "actor-2": 1.0, "actor-3": 0.2}


def test_synth_same_seed_identical_files(tmp_path) -> None:
    path_a = write_config(tmp_path, name="a.json", out=str(tmp_path / "a"))
    path_b = write_config(tmp_path, name="b.json", out=str(tmp_path / "b"))
    assert run("synth", "--config", str(path_a)) == 0
    assert run("synth", "--config", str(path_b)) == 0
    for name in ("actor-1.csv", "metric.csv", "truth.json", "manifest.json"):
        assert (tmp_path / "a" / "data" / name).read_bytes() == (
            tmp_path / "b" / "data" / name
        ).read_bytes()


# -------------------------------------------------------------------- ingest


def make_raw_csv(tmp_path: Path) -> Path:
    """12 rows; m2 is 11/12 missing, one m1 missing, one f1 missing."""
    path = tmp_path / "raw.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["part_id", "f1", "f2", "hum", "m1", "m2"])
        for i in range(12):
            m1 = "" if i == 4 else f"{10.0 + i * 0.1}"
            m2 = "7.0" if i == 0 else ""
            f1 = "" if i == 7 else f"{float(i)}"
            writer.writerow([f"p{i:02d}", f1, f"{i * 2.0}", "0.4", m1, m2])
    return path


def ingest_config(tmp_path: Path, **data_overrides) -> Path:
    data = {
        "input_csv": str(make_raw_csv(tmp_path)),
        "id_column": "part_id",
        "actor_schema": {"f1": "alpha", "f2": "beta"},
        "shared_columns": ["hum"],
        "measurement_columns": ["m1", "m2"],
        "setpoints": {"m1": 10.0, "m2": 7.0},
    }
    data.update(data_overrides)
    return write_config(tmp_path, data=data)


def test_ingest_drops_dead_column_and_missing_rows(tmp_path, capsys) -> None:
    path = ingest_config(tmp_path)
    assert run("ingest", "--config", str(path)) == 0
    output = capsys.readouterr().out
    assert "dropped measurement columns: 1" in output
    assert "m2: 11 of 12 values missing" in output
    assert "dropped rows with missing measurements: 1" in output
    assert "dropped rows with missing feature values: 1" in output

    data = tmp_path / "run" / "data"
    metric = MetricSeries.from_csv(data / "metric.csv")
    assert len(metric) == 10  # 12 - 1 missing m1 - 1 missing f1
    assert "p04" not in metric.part_ids and "p07" not in metric.part_ids
    manifest = json.loads((data / "manifest.json").read_text())
    actor_ids = {entry["actor_id"] for entry in manifest["actors"]}
    assert actor_ids == {"alpha", "beta"}


def test_ingest_clean_input_logs_zero_drops(tmp_path, capsys) -> None:
    raw = tmp_path / "clean.csv"
    with raw.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["part_id", "f1", "m1"])
        for i in range(8):
            writer.writerow([f"p{i}", f"{float(i)}", f"{10.0 + i}"])
    path = ingest_config(
        tmp_path,
        input_csv=str(raw),
        actor_schema={"f1": "alpha"},
        shared_columns=[],
        measurement_columns=["m1"],
        setpoints={"m1": 10.0},
    )
    assert run("ingest", "--config", str(path)) == 0
    output = capsys.readouterr().out
    assert "dropped measurement columns: 0" in output
    assert "dropped rows with missing measurements: 0" in output


def test_ingest_missing_id_column_exits_two(tmp_path) -> None:
    path = ingest_config(tmp_path, id_column="serial")
    assert run("ingest", "--config", str(path)) == 2


def test_ingest_requires_schema(tmp_path) -> None:
    path = ingest_config(tmp_path, actor_schema={})
    assert run("ingest", "--config", str(path)) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"actor_schema": {"f1": "alpha", "m1": "beta"}},
        {"shared_columns": ["hum", "m1"]},
    ],
)
def test_ingest_measurement_used_as_feature_exits_two(tmp_path, capsys, overrides) -> None:
    path = ingest_config(tmp_path, **overrides)
    assert run("ingest", "--config", str(path)) == 2
    assert "m1" in capsys.readouterr().err
    assert not (tmp_path / "run" / "data").exists()


@pytest.mark.parametrize(
    ("field", "names"),
    [("measurement_columns", ["m1", "m1", "m2"]), ("shared_columns", ["hum", "hum"])],
)
def test_ingest_repeated_config_name_exits_two_unread(
    tmp_path, capsys, monkeypatch, field, names
) -> None:
    path = ingest_config(tmp_path, **{field: names})

    def no_read(*args, **kwargs):
        raise AssertionError("a data file was read")

    monkeypatch.setattr(cli, "load_csv", no_read)
    assert run("ingest", "--config", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: data section invalid: {field} {names[0]!r} appears more than once\n"
    )
    assert not (tmp_path / "run").exists()


def test_ingest_repeated_header_column_exits_two(tmp_path, capsys) -> None:
    path = ingest_config(tmp_path)
    raw = tmp_path / "raw.csv"
    header, *rows = raw.read_text().splitlines(keepends=True)
    # A second f2 column, which plain reading would fill with the first one's values.
    raw.write_text("".join([header.rstrip() + ",f2\n", *(r.rstrip() + ",99.0\n" for r in rows)]))
    assert run("ingest", "--config", str(path)) == 2
    assert capsys.readouterr().err == f"error: {raw}: column 'f2' appears more than once\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("actor_id", ["../x", "a/b", "..", ""])
def test_ingest_actor_id_that_is_not_a_file_name_exits_two_unread(
    tmp_path, capsys, monkeypatch, actor_id
) -> None:
    path = ingest_config(tmp_path, actor_schema={"f1": "alpha", "f2": actor_id})

    def no_read(*args, **kwargs):
        raise AssertionError("a data file was read")

    monkeypatch.setattr(cli, "load_csv", no_read)
    assert run("ingest", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data section invalid") and "bare file name" in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "x.csv").exists()


def test_ingest_blank_setpoint_companion_drops_the_row(tmp_path, capsys) -> None:
    raw = tmp_path / "companions.csv"
    with raw.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["part_id", "f1", "m1", "m1.Setpoint"])
        for i in range(8):
            setpoint = "" if i == 2 else "10.0"
            m1 = "" if i == 5 else f"{10.0 + i}"
            writer.writerow([f"p{i}", f"{float(i)}", m1, setpoint])
    path = ingest_config(
        tmp_path,
        input_csv=str(raw),
        actor_schema={"f1": "alpha"},
        shared_columns=[],
        measurement_columns=["m1"],
        setpoints=None,
    )
    assert run("ingest", "--config", str(path)) == 0
    output = capsys.readouterr().out
    assert "dropped rows with missing measurements: 2" in output
    assert "missing feature values" not in output
    metric = MetricSeries.from_csv(tmp_path / "run" / "data" / "metric.csv")
    assert metric.part_ids == ("p0", "p1", "p3", "p4", "p6", "p7")
    assert metric.values.tolist() == [i / 10.0 for i in (0, 1, 3, 4, 6, 7)]


def test_ingest_infinite_feature_cell_exits_two_unwritten(tmp_path, capsys) -> None:
    path = ingest_config(tmp_path)
    raw = tmp_path / "raw.csv"
    raw.write_text(raw.read_text().replace("p03,3.0,", "p03,inf,"))
    assert run("ingest", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "infinite" in err
    assert not (tmp_path / "run" / "data").exists()


# ------------------------------------------------------------- decentralised


def synth_then(tmp_path: Path, config_path: Path) -> None:
    assert run("synth", "--config", str(config_path)) == 0


def assert_log_ranking_is_the_csv(out: Path) -> None:
    """The campaign log's ranking holds the same rows as ranking.csv."""
    log = json.loads((out / "campaign_log.json").read_text())
    read_back = ContributionRanking.from_csv(out / "ranking.csv")
    assert log["ranking"] == [
        {
            "rank": e.estimated_rank,
            "actor_id": e.actor_id,
            "total_uncertainty": e.total_uncertainty,
            "below_noise_floor": e.below_noise_floor,
        }
        for e in read_back.entries
    ]


def test_run_decentralised_writes_ranking_and_log(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 0
    out = tmp_path / "run" / "decentralised"
    lines = (out / "ranking.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,actor_id,total_uncertainty,below_noise_floor"
    ranked = [line.split(",")[1] for line in lines[1:]]
    assert set(ranked) == {"actor-1", "actor-2", "actor-3", NOISE_ACTOR_ID}
    log = json.loads((out / "campaign_log.json").read_text())
    assert log["declines"] == [] and log["timeouts"] == []
    assert len(log["responses"]) == 3
    assert_log_ranking_is_the_csv(out)


def test_run_decentralised_rerun_byte_identical(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 0
    out = tmp_path / "run" / "decentralised"
    first_ranking = (out / "ranking.csv").read_bytes()
    first_log = (out / "campaign_log.json").read_bytes()
    assert run("run-decentralised", "--config", str(path)) == 0
    assert (out / "ranking.csv").read_bytes() == first_ranking
    assert (out / "campaign_log.json").read_bytes() == first_log


def test_run_decentralised_with_decliner(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    # Cut actor-2 below the default 50-part overlap, so it declines.
    actor_csv = tmp_path / "run" / "data" / "actor-2.csv"
    actor_csv.write_text("".join(actor_csv.read_text().splitlines(keepends=True)[:11]))
    assert run("run-decentralised", "--config", str(path)) == 0
    out = tmp_path / "run" / "decentralised"
    log = json.loads((out / "campaign_log.json").read_text())
    assert log["declines"] == ["actor-2"]
    ranked = {
        line.split(",")[1]
        for line in (out / "ranking.csv").read_text().strip().splitlines()[1:]
    }
    assert ranked == {"actor-1", "actor-3", NOISE_ACTOR_ID}


def test_run_decentralised_all_decline_exits_three(tmp_path) -> None:
    # No actor can overlap the metric on a million parts.
    path = write_config(tmp_path, campaign={"noise_feature_count": 4, "min_overlap": 10**6})
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 3


def test_failed_run_leaves_no_earlier_results(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 0
    out = tmp_path / "run" / "decentralised"
    failing = write_config(
        tmp_path, "failing.json", campaign={"noise_feature_count": 4, "min_overlap": 10**6}
    )
    assert run("run-decentralised", "--config", str(failing)) == 3
    # compare must not find the previous run's ranking, and the log left
    # is the failed run's own, which ranks nothing.
    assert not (out / "ranking.csv").exists()
    assert "ranking" not in json.loads((out / "campaign_log.json").read_text())


@pytest.mark.parametrize("transport", cli.TRANSPORTS)
def test_failed_campaign_writes_its_log(tmp_path, capsys, transport) -> None:
    # Every actor holds 400 parts, short of the overlap asked for.
    path = write_config(
        tmp_path, transport=transport, campaign={"noise_feature_count": 4, "min_overlap": 401}
    )
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 3
    assert capsys.readouterr().err.startswith("campaign failed: every actor declined")
    out = tmp_path / "run" / "decentralised"
    log = json.loads((out / "campaign_log.json").read_text())
    assert log["declines"] == ["actor-1", "actor-2", "actor-3"]
    assert log["timeouts"] == [] and log["responses"] == []
    assert set(log) == {"call_id", "transformed", "responses", "declines", "timeouts"}
    assert not (out / "ranking.csv").exists()


def edit_manifest(data: Path, index: int, **fields) -> None:
    """Replace fields of the manifest's ``index``-th entry with raw JSON values."""
    path = data / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["actors"][index].update(fields)
    path.write_text(json.dumps(manifest))


def test_reply_reusing_an_actor_id_writes_the_log(tmp_path, monkeypatch, capsys) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    # A manifest may not name one actor twice, so the loader itself serves
    # actor-2's dataset under actor-1's id: two actors reply as actor-1.
    load = cli.load_actor_datasets
    monkeypatch.setattr(
        cli,
        "load_actor_datasets",
        lambda in_dir: [dataclasses.replace(ds, actor_id="actor-1") for ds in load(in_dir)[:2]],
    )
    assert run("run-decentralised", "--config", str(path)) == 3
    assert "names actor 'actor-1'" in capsys.readouterr().err
    out = tmp_path / "run" / "decentralised"
    log = json.loads((out / "campaign_log.json").read_text())
    assert set(log) == {"call_id", "transformed", "responses", "declines", "timeouts"}
    assert not (out / "ranking.csv").exists()


@pytest.mark.parametrize("transport", cli.TRANSPORTS)
@pytest.mark.parametrize("deadline", [1e300, 0.0])
def test_deadline_out_of_range_exits_two_before_any_actor_starts(
    tmp_path, monkeypatch, capsys, transport, deadline
) -> None:
    synth_then(tmp_path, write_config(tmp_path))
    path = write_config(
        tmp_path,
        "deadline.json",
        transport=transport,
        campaign={"noise_feature_count": 4, "deadline": deadline},
    )

    def no_actor(*args, **kwargs):
        raise AssertionError("an actor process was started")

    monkeypatch.setattr(cli.subprocess, "Popen", no_actor)
    assert run("run-decentralised", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: campaign section invalid") and "deadline" in err


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("campaign", "noise_feature_count", 0),
        ("campaign", "slack", 0),
        ("campaign", "min_overlap", -5),
        ("central", "sample_count", -1),
        ("data", "column_missing_threshold", 7.0),
        ("data", "setpoints", {"m1": -1.0}),
    ],
)
def test_value_that_can_never_work_exits_two_before_any_actor_starts(
    tmp_path, monkeypatch, capsys, section, key, value
) -> None:
    synth_then(tmp_path, write_config(tmp_path))
    raw = json.loads(write_config(tmp_path, transport="sockets").read_text())
    raw.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))

    def no_actor(*args, **kwargs):
        raise AssertionError("an actor process was started")

    monkeypatch.setattr(cli.subprocess, "Popen", no_actor)
    assert run("run-decentralised", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section} section invalid") and key in err


def test_data_section_type_refuses_a_non_text_name_or_key() -> None:
    for fields in (
        {"actor_schema": {1: "alpha"}},
        {"setpoints": {2: 10.0}},
        {"shared_columns": ("hum", None)},
    ):
        with pytest.raises(TypeError, match="must be text"):
            cli.DataConfig(**fields)


def test_spawned_actors_default_to_one_blas_thread(tmp_path, monkeypatch) -> None:
    path = write_config(tmp_path, transport="sockets")
    synth_then(tmp_path, path)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")  # the caller's choice stands
    envs = []

    def record_env(command, **kwargs):
        envs.append(kwargs["env"])
        raise OSError("not started")

    monkeypatch.setattr(cli.subprocess, "Popen", record_env)
    assert run("run-decentralised", "--config", str(path)) == 2
    assert [env["OPENBLAS_NUM_THREADS"] for env in envs] == ["1"]
    assert envs[0]["MKL_NUM_THREADS"] == "1" and envs[0]["OMP_NUM_THREADS"] == "3"


def test_run_decentralised_missing_data_exits_two(tmp_path) -> None:
    path = write_config(tmp_path)
    assert run("run-decentralised", "--config", str(path)) == 2


def socket_config(tmp_path: Path, path: Path) -> Path:
    """The same data directory and seed as ``path``, over sockets into run_sock/."""
    raw = json.loads(path.read_text())
    raw["transport"] = "sockets"
    raw["out"] = str(tmp_path / "run_sock")
    raw["data"] = {
        "actor_dir": str(tmp_path / "run" / "data"),
        "metric_csv": str(tmp_path / "run" / "data" / "metric.csv"),
    }
    sock_path = tmp_path / "sock.json"
    sock_path.write_text(json.dumps(raw))
    return sock_path


def test_socket_transport_matches_in_process(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 0
    names = ("ranking.csv", "campaign_log.json")
    in_process = [(tmp_path / "run" / "decentralised" / n).read_bytes() for n in names]
    assert run("run-decentralised", "--config", str(socket_config(tmp_path, path))) == 0
    socket_bytes = [(tmp_path / "run_sock" / "decentralised" / n).read_bytes() for n in names]
    assert socket_bytes == in_process
    assert_log_ranking_is_the_csv(tmp_path / "run_sock" / "decentralised")


def test_socket_coordinator_reads_no_actor_file(tmp_path, monkeypatch) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-decentralised", "--config", str(path)) == 0
    expected = (tmp_path / "run" / "decentralised" / "ranking.csv").read_bytes()

    def no_private_files(*args, **kwargs):
        raise AssertionError("the coordinator parsed the actors' files")

    monkeypatch.setattr(cli, "load_actor_datasets", no_private_files)
    assert run("run-decentralised", "--config", str(socket_config(tmp_path, path))) == 0
    assert (tmp_path / "run_sock" / "decentralised" / "ranking.csv").read_bytes() == expected


def test_corrupt_actor_file_exits_two_in_process_and_three_over_sockets(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    (tmp_path / "run" / "data" / "actor-2.csv").write_text("part_id,a\nP1,not-a-number,3\n")
    # In process the coordinator parses every file: a data error.
    assert run("run-decentralised", "--config", str(path)) == 2
    # Over sockets only actor-2's own process reads the file; it dies
    # before reporting an address, so the campaign fails.
    assert run("run-decentralised", "--config", str(socket_config(tmp_path, path))) == 3


def test_infinite_feature_cell_exits_two_in_process_and_three_over_sockets(
    tmp_path, capsys
) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    actor_csv = tmp_path / "run" / "data" / "actor-1.csv"
    header, first, *rest = actor_csv.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[1] = "inf"
    actor_csv.write_text("".join([header, ",".join(cells), *rest]))
    capsys.readouterr()
    for command in ("run-decentralised", "run-central"):
        assert run(command, "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "infinite" in err
    assert run("run-decentralised", "--config", str(socket_config(tmp_path, path))) == 3


@pytest.mark.parametrize(
    ("field", "value"),
    [("actor_id", 7), ("actor_id", "../actor-2"), ("shared_flags", ["false"] * 3)],
    ids=["integer-id", "path-id", "string-flags"],
)
def test_manifest_entry_that_save_would_not_write_exits_two(
    tmp_path, monkeypatch, capsys, field, value
) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    edit_manifest(tmp_path / "run" / "data", 1, **{field: value})
    capsys.readouterr()

    def no_actor(*args, **kwargs):
        raise AssertionError("an actor process was started")

    monkeypatch.setattr(cli.subprocess, "Popen", no_actor)
    # Both transports: the coordinator checks the whole manifest it reads.
    for config in (path, socket_config(tmp_path, path)):
        for command in ("run-decentralised", "run-central"):
            assert run(command, "--config", str(config)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "manifest.json" in err


@pytest.mark.parametrize("transport", cli.TRANSPORTS)
def test_manifest_repeating_a_key_exits_two(tmp_path, capsys, transport) -> None:
    path = write_config(tmp_path, transport=transport)
    synth_then(tmp_path, path)
    manifest = tmp_path / "run" / "data" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"actors": ', '"actors": [], "actors": '))
    capsys.readouterr()
    for command in ("run-decentralised", "run-central"):
        assert run(command, "--config", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: key 'actors' appears more than once\n"
        )


@pytest.mark.parametrize("transport", cli.TRANSPORTS)
def test_manifest_naming_one_actor_twice_exits_two(tmp_path, capsys, transport) -> None:
    path = write_config(tmp_path, transport=transport)
    synth_then(tmp_path, path)
    edit_manifest(tmp_path / "run" / "data", 1, actor_id="actor-1")
    capsys.readouterr()
    for command in ("run-decentralised", "run-central"):
        assert run(command, "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'run' / 'data' / 'manifest.json'}: "
            "actor_id 'actor-1' appears more than once\n"
        )


@pytest.mark.parametrize("transport", cli.TRANSPORTS)
def test_constant_metric_exits_two_before_any_actor_starts(
    tmp_path, monkeypatch, capsys, transport
) -> None:
    path = write_config(tmp_path, transport=transport)
    synth_then(tmp_path, path)
    metric_path = tmp_path / "run" / "data" / "metric.csv"
    metric = MetricSeries.from_csv(metric_path)
    MetricSeries(part_ids=metric.part_ids, values=np.full(len(metric), 5.0)).to_csv(metric_path)
    monkeypatch.setattr(cli, "_spawn_actors", lambda *_: pytest.fail("an actor started"))
    capsys.readouterr()
    assert run("run-decentralised", "--config", str(path)) == 2
    assert capsys.readouterr().err == "error: metric is constant; nothing to estimate\n"
    assert not (tmp_path / "run" / "decentralised" / "campaign_log.json").exists()


@pytest.mark.parametrize("transport", cli.TRANSPORTS)
def test_empty_metric_exits_two_with_one_line(tmp_path, monkeypatch, capsys, transport) -> None:
    path = write_config(tmp_path, transport=transport)
    synth_then(tmp_path, path)
    metric_path = tmp_path / "run" / "data" / "metric.csv"
    metric_path.write_text(metric_path.read_text().splitlines()[0] + "\n")
    monkeypatch.setattr(cli, "_spawn_actors", lambda *_: pytest.fail("an actor started"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may reach stderr
        assert run("run-decentralised", "--config", str(path)) == 2
    assert capsys.readouterr().err == "error: metric is empty; nothing to estimate\n"


def test_silent_socket_actor_exits_three_and_leaves_no_child(
    tmp_path, monkeypatch
) -> None:
    path = write_config(tmp_path, transport="sockets")
    synth_then(tmp_path, path)
    # Stand-in actors that start but never print LISTENING.
    monkeypatch.setattr(
        cli,
        "_actor_command",
        lambda *_: [sys.executable, "-c", "import time; time.sleep(60)"],
    )
    monkeypatch.setattr(cli, "SPAWN_TIMEOUT_S", 1.0)
    spawned = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(cli.subprocess, "Popen", recording_popen)
    started = time.monotonic()
    assert run("run-decentralised", "--config", str(path)) == 3
    assert time.monotonic() - started < 10.0
    assert len(spawned) == 3  # every actor started before the wait
    assert all(proc.poll() is not None for proc in spawned)


# ------------------------------------------------------------------- central


def test_run_central_includes_noise_and_shared_rows(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-central", "--config", str(path)) == 0
    summary = (tmp_path / "run" / "central" / "shap_summary.csv").read_text()
    rows = dict(
        line.split(",") for line in summary.strip().splitlines()[1:]
    )
    assert set(rows) == {"actor-1", "actor-2", "actor-3", NOISE_ACTOR_ID}
    assert all(float(v) >= 0.0 for v in rows.values())


def test_run_central_same_seed_identical(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    assert run("run-central", "--config", str(path)) == 0
    central = tmp_path / "run" / "central"
    first = (central / "shap_values.csv").read_bytes()
    assert run("run-central", "--config", str(path)) == 0
    assert (central / "shap_values.csv").read_bytes() == first


def test_run_central_constant_target_tiny_attributions(tmp_path) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    metric_path = tmp_path / "run" / "data" / "metric.csv"
    metric = MetricSeries.from_csv(metric_path)
    MetricSeries(
        part_ids=metric.part_ids, values=np.full(len(metric), 5.0)
    ).to_csv(metric_path)
    assert run("run-central", "--config", str(path)) == 0
    values = (tmp_path / "run" / "central" / "shap_values.csv").read_text()
    attributions = [
        abs(float(line.rsplit(",", 1)[1]))
        for line in values.strip().splitlines()[1:]
    ]
    assert max(attributions) < 1e-2


def test_run_central_rejects_small_budget_before_training(
    tmp_path, monkeypatch, capsys
) -> None:
    from chaincontrib import baseline

    def no_training(*args, **kwargs):
        raise AssertionError("trained a model for a budget that cannot be used")

    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    raw = json.loads(path.read_text())
    raw["central"]["sample_count"] = 5  # 3 actors x 3 + 4 noise columns need 28
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(baseline, "train_member", no_training)
    capsys.readouterr()
    assert run("run-central", "--config", str(path)) == 2
    assert capsys.readouterr().err.strip() == (
        "error: sample_count 5 too small; need at least 28"
    )


# ------------------------------------------------------------------- compare


def full_pipeline(tmp_path: Path) -> Path:
    path = write_config(tmp_path)
    assert run("synth", "--config", str(path)) == 0
    assert run("run-decentralised", "--config", str(path)) == 0
    assert run("run-central", "--config", str(path)) == 0
    return path


def test_compare_emits_report_files(tmp_path, capsys) -> None:
    path = full_pipeline(tmp_path)
    assert run("compare", "--config", str(path)) == 0
    output = capsys.readouterr().out
    assert "kendall_tau=" in output
    comparison = tmp_path / "run" / "comparison"
    for name in ("rank_table.csv", "summary.txt", "comparison.svg"):
        assert (comparison / name).exists()
    svg = (comparison / "comparison.svg").read_text()
    assert NOISE_ACTOR_ID in svg


def test_compare_rerun_byte_identical(tmp_path) -> None:
    path = full_pipeline(tmp_path)
    assert run("compare", "--config", str(path)) == 0
    table = tmp_path / "run" / "comparison" / "rank_table.csv"
    first = table.read_bytes()
    assert run("compare", "--config", str(path)) == 0
    assert table.read_bytes() == first


def test_compare_mismatched_actor_sets_exits_two(tmp_path) -> None:
    path = full_pipeline(tmp_path)
    summary = tmp_path / "run" / "central" / "shap_summary.csv"
    lines = summary.read_text().splitlines(keepends=True)
    summary.write_text("".join(x for x in lines if not x.startswith(NOISE_ACTOR_ID)))
    assert run("compare", "--config", str(path)) == 2


def test_compare_missing_inputs_exits_two(tmp_path) -> None:
    path = write_config(tmp_path)
    assert run("compare", "--config", str(path)) == 2


def hand_written_results(tmp_path: Path, flag: str = "false", summary: str = "") -> Path:
    """A config whose compare section points at small hand-written inputs."""
    ranking = tmp_path / "ranking.csv"
    ranking.write_text(
        "rank,actor_id,total_uncertainty,below_noise_floor\n"
        f"1,a,0.5,false\n2,b,1.0,{flag}\n3,{NOISE_ACTOR_ID},2.0,false\n"
    )
    shap_summary = tmp_path / "shap_summary.csv"
    shap_summary.write_text(
        "actor_id,mean_abs_attribution\n"
        + (summary or f"a,3.0\nb,1.0\n{NOISE_ACTOR_ID},0.1\n")
    )
    return write_config(
        tmp_path, compare={"ranking": str(ranking), "shap_summary": str(shap_summary)}
    )


def test_compare_reads_hand_written_results(tmp_path) -> None:
    assert run("compare", "--config", str(hand_written_results(tmp_path))) == 0


@pytest.mark.parametrize("flag", ["True", "1", "", "FALSE"])
def test_compare_non_canonical_flag_exits_two(tmp_path, capsys, flag) -> None:
    path = hand_written_results(tmp_path, flag=flag)
    assert run("compare", "--config", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "below_noise_floor" in err[0]


def test_compare_duplicate_summary_actor_exits_two(tmp_path, capsys) -> None:
    summary = f"a,1.0\na,2.0\nb,0.5\n{NOISE_ACTOR_ID},0.1\n"
    path = hand_written_results(tmp_path, summary=summary)
    assert run("compare", "--config", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "actor_id 'a' appears more than once" in err[0]


def test_compare_unparsable_summary_cell_names_the_file(tmp_path, capsys) -> None:
    summary = f"a,oops\nb,1.0\n{NOISE_ACTOR_ID},0.1\n"
    path = hand_written_results(tmp_path, summary=summary)
    assert run("compare", "--config", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'shap_summary.csv'}: row 0, column 'mean_abs_attribution': "
        "cannot parse 'oops' as a number\n"
    )


def test_compare_ranking_with_a_repeated_actor_exits_two(tmp_path, capsys) -> None:
    path = hand_written_results(tmp_path)
    with (tmp_path / "ranking.csv").open("a") as ranking:
        ranking.write("4,a,9.0,true\n")
    assert run("compare", "--config", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "actor_id 'a' appears more than once" in err[0]
    assert not (tmp_path / "run" / "comparison").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-5.0"])
def test_compare_ranking_with_a_bad_uncertainty_exits_two(tmp_path, capsys, value) -> None:
    path = hand_written_results(tmp_path)
    ranking = tmp_path / "ranking.csv"
    ranking.write_text(ranking.read_text().replace("2,b,1.0,", f"2,b,{value},"))
    assert run("compare", "--config", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "ranking.csv" in err[0]
    assert "not finite and non-negative" in err[0]


def test_compare_ranking_out_of_order_exits_two(tmp_path, capsys) -> None:
    path = hand_written_results(tmp_path)
    ranking = tmp_path / "ranking.csv"
    ranking.write_text(ranking.read_text().replace("2,b,1.0,", "7,b,1.0,"))
    assert run("compare", "--config", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "ranking.csv" in err[0]


# --------------------------------------------------------------------- actor


def test_actor_unknown_id_exits_two(tmp_path, capsys) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    code = run(
        "actor",
        "--data",
        str(tmp_path / "run" / "data"),
        "--actor-id",
        "nobody",
        "--seed",
        "0",
        "--listen",
        "127.0.0.1:0",
    )
    assert code == 2
    assert "nobody" in capsys.readouterr().err


@pytest.mark.parametrize("listen", ["nonsense", "127.0.0.1:-5", "127.0.0.1:70000"])
def test_actor_bad_listen_spec_exits_two(tmp_path, listen) -> None:
    path = write_config(tmp_path)
    synth_then(tmp_path, path)
    code = run(
        "actor",
        "--data",
        str(tmp_path / "run" / "data"),
        "--actor-id",
        "actor-1",
        "--seed",
        "0",
        "--listen",
        listen,
    )
    assert code == 2


def test_missing_subcommand_is_usage_error() -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
