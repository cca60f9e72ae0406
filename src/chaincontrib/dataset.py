"""Multi-stage process data handling.

Everything between a raw per-observation CSV export and the inputs of the
estimation pipeline lives here: cleaning of faulty measurements, aggregation
of part measurements into one scalar quality score per observation,
partitioning of feature columns into per-actor private views, and a
synthetic generator with known per-actor signal strengths used to validate
the whole pipeline end to end.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# Actor id reserved for the coordinator's pure-noise reference run.
NOISE_ACTOR_ID = "noise-baseline"


class ParseError(ValueError):
    """An input file violates the expected layout."""


def require_int(name: str, value, least: int | None = None) -> int:
    """Return ``value`` if it is an integer of at least ``least``.

    A fraction, a bool or any other type raises TypeError, so that no
    count or seed from a config or a frame is ever silently truncated;
    a value below ``least`` raises ValueError.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def require_real(name: str, value) -> float:
    """Return ``value`` as a float if it is a finite int or float.

    A bool or any other type raises TypeError, as in ``require_int``; an
    integer too large for a float, or an infinity or NaN, raises ValueError.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond float range") from None
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {real!r}")
    return real


def require_text(name: str, value) -> str:
    """Return ``value`` if it is text; any other type raises TypeError, so
    that no number or null from a config or a frame becomes a name."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be text, got {value!r}")
    return value


def require_file_name(name: str, value) -> str:
    """Return ``value`` if it is text naming a file directly inside a directory.

    A non-text value raises TypeError. An empty name, ``.``, ``..`` or a
    name holding a path separator raises ValueError, so that an actor id
    or a manifest entry never reaches outside its dataset directory.
    """
    if require_text(name, value) in ("", ".", "..") or "/" in value or "\\" in value:
        raise ValueError(f"{name} must be a bare file name, got {value!r}")
    return value


def require_unique(name: str, values: Sequence) -> Sequence:
    """Return ``values`` if no value repeats an earlier one.

    The first repeat raises ValueError naming it. One set comparison
    checks the whole sequence; only a failing one scans for the name.
    """
    distinct = set(values)
    if len(distinct) != len(values):
        seen = set()
        for value in values:
            if value in seen:
                raise ValueError(f"{name} {value!r} appears more than once")
            seen.add(value)
    return values


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    require_unique("key", [key for key, _ in pairs])
    return dict(pairs)


def parse_json(text: str):
    """``json.loads`` for every JSON the package reads (configs, manifests
    and frames): an object that repeats a key raises ValueError naming it."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as sorted, indented JSON and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _parse_cell(text: str, path: Path, row_index: int, column: str) -> float:
    s = text.strip()
    if s == "" or s.lower() == "nan":
        return float("nan")
    try:
        return float(s)
    except ValueError:
        raise ParseError(
            f"{path}: row {row_index}, column {column!r}: cannot parse {text!r} as a number"
        ) from None


@dataclass(frozen=True)
class RawTable:
    """Column-oriented view of one CSV export.

    Row order is chronological observation order and is preserved by every
    operation. Missing cells are NaN; ids are opaque strings kept apart
    from the numeric payload.
    """

    ids: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray  # (n_rows, n_columns), NaN marks a missing cell

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if values.shape != (len(self.ids), len(self.columns)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{len(self.ids)} rows x {len(self.columns)} columns"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def missing_fraction(self, name: str) -> float:
        col = self.column(name)
        if col.size == 0:
            return 0.0
        return float(np.isnan(col).mean())

    def select(self, columns: Sequence[str], rows: np.ndarray | None = None) -> RawTable:
        """The named columns, in that order, of the rows a boolean mask
        keeps; every row when ``rows`` is None."""
        unknown = [c for c in columns if c not in self.columns]
        if unknown:
            raise ValueError(f"columns not in table: {unknown}")
        values = self.values[:, [self.columns.index(c) for c in columns]]
        ids = self.ids
        if rows is not None:
            values, ids = values[rows], tuple(compress(ids, rows))
        return RawTable(ids, tuple(columns), values)


def load_csv(path: str | Path, id_column: str) -> RawTable:
    """Read a UTF-8 CSV, with or without a byte-order mark, into a RawTable.

    The designated id column is split off as the row ids; every other
    column must parse as a number, an empty cell, or the literal "NaN".
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        if id_column not in header:
            raise ParseError(f"{path}: id column {id_column!r} not in header {header}")
        try:
            require_unique("column", header)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
        id_pos = header.index(id_column)
        columns = tuple(c for i, c in enumerate(header) if i != id_pos)

        ids: list[str] = []
        cells: list[float] = []  # row after row, one flat list
        for row_index, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_index} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            part_id = row.pop(id_pos).strip()
            if not part_id:
                raise ParseError(f"{path}: row {row_index} has an empty id")
            ids.append(part_id)
            # float() gives _parse_cell's value for every text it accepts;
            # a blank or unparsable cell sends the row through _parse_cell.
            row_start = len(cells)
            try:
                cells.extend(map(float, row))
            except ValueError:
                del cells[row_start:]
                cells.extend(
                    _parse_cell(cell, path, row_index, c) for cell, c in zip(row, columns)
                )

    try:
        require_unique(id_column, ids)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None

    values = np.asarray(cells, dtype=float).reshape(len(ids), len(columns))
    return RawTable(ids=tuple(ids), columns=columns, values=values)


# Rows are formatted and written in blocks of about this many cells (250
# rows of a 4-column table), so memory stays bounded however large the
# table is.
_WRITE_BLOCK_CELLS = 1000
# csv.writer's default dialect: its delimiter, its line end, and the
# characters that make it quote a field.
_DELIMITER, _LINE_END, _QUOTED_CHARS = ",", "\r\n", ',"\r\n'


def _column_texts(column: tuple, width: int) -> Iterable[str] | None:
    """Each cell's CSV text, where it is known without csv.writer.

    A float is written as its ``repr``, which never needs quoting; a str
    that needs no quoting is written as it is, except an empty cell in a
    one-column table, which csv.writer writes as ``""``. Any other column
    gives None.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        return map(repr, column)
    if kinds == {str}:
        joined = "".join(column)
        if not any(c in joined for c in _QUOTED_CHARS) and (width > 1 or all(column)):
            return column
    return None


def _block_text(block: list[Sequence]) -> str | None:
    """The CSV lines of equal-length rows of floats and plain strs, joined
    column by column; None for any other block."""
    widths = set(map(len, block))
    width = widths.pop()
    if widths or width == 0:
        return None
    texts = [_column_texts(column, width) for column in zip(*block)]
    if None in texts:
        return None
    return _LINE_END.join(map(_DELIMITER.join, zip(*texts))) + _LINE_END


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV: the header row, then one line per row.

    A bool cell is written ``true`` or ``false``. Every other cell is
    written as the csv module writes it, and that writes a Python float as
    its ``repr``, so :func:`load_csv` reads it back exactly. Callers pass
    floats as Python floats (``ndarray.tolist()`` or ``float()``).

    Rows go out in blocks of about ``_WRITE_BLOCK_CELLS`` cells. A block that
    ``_block_text`` can join is written in one call, any other one row by
    row through csv.writer; both give csv.writer's bytes.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        block_rows = max(1, _WRITE_BLOCK_CELLS // max(1, len(header)))
        rows = iter(rows)
        while block := list(islice(rows, block_rows)):
            text = _block_text(block)
            if text is not None:
                fh.write(text)
                continue
            writer.writerows(
                [("true" if c else "false") if type(c) is bool else c for c in row]
                if bool in map(type, row)
                else row
                for row in block
            )


DEFAULT_MISSING_THRESHOLD = 0.5


def clean_measurements(
    table: RawTable,
    measurement_columns: Sequence[str],
    column_missing_threshold: float = DEFAULT_MISSING_THRESHOLD,
) -> RawTable:
    """Drop unreliable measurement columns, then rows with missing targets.

    A measurement column whose missing fraction exceeds the threshold is
    removed entirely (a mostly-dead column indicates a faulty device, not
    recoverable data). Rows still missing one of the surviving measurement
    values are dropped, never imputed.
    """
    if not 0.0 < column_missing_threshold <= 1.0:
        raise ValueError("column_missing_threshold must be in (0, 1]")
    unknown = [c for c in measurement_columns if c not in table.columns]
    if unknown:
        raise ValueError(f"measurement columns not in table: {unknown}")

    dropped = {
        c
        for c in measurement_columns
        if table.missing_fraction(c) > column_missing_threshold
    }
    kept = [c for c in measurement_columns if c not in dropped]
    if measurement_columns and not kept:
        raise ValueError("all measurement columns exceeded the missing-value threshold")
    complete = ~np.isnan(table.select(kept).values).any(axis=1)
    return table.select([c for c in table.columns if c not in dropped], complete)


def aggregate_quality(actuals, setpoints) -> float:
    """Collapse one observation's measurements into a scalar quality score.

    ``actuals`` has one row per measured part and one column per
    measurement type; ``setpoints`` holds the target value per type,
    either shared across parts (1-d) or given per part (same shape as
    ``actuals``). The score is the sum of absolute relative deviations
    from the setpoint over all measured values, divided by the number of
    measurement types. Zero means every part hit its setpoints exactly;
    the score grows linearly with the relative deviations and is never
    negative.
    """
    actuals = np.atleast_2d(np.asarray(actuals, dtype=float))
    setpoints = np.asarray(setpoints, dtype=float)
    if actuals.size == 0:
        raise ValueError("measurement block must not be empty")
    if setpoints.ndim == 1:
        if setpoints.shape[0] != actuals.shape[1]:
            raise ValueError("one setpoint per measurement type required")
    elif setpoints.shape != actuals.shape:
        raise ValueError("per-part setpoints must match the actuals shape")
    if np.any(setpoints <= 0):
        raise ValueError("setpoints must be strictly positive")
    if np.any(np.isnan(actuals)) or np.any(np.isnan(setpoints)):
        raise ValueError("measurement block contains missing values")
    deviations = np.abs(actuals - setpoints) / setpoints
    return float(deviations.sum() / actuals.shape[1])


@dataclass(frozen=True, eq=False)
class MetricSeries:
    """(part id, metric value) pairs; the only payload a coordinator shares."""

    part_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if len(self.part_ids) != values.shape[0]:
            raise ValueError("part_ids and values must have equal length")
        require_unique("part_id", self.part_ids)
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("metric values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricSeries):
            return NotImplemented
        return self.part_ids == other.part_ids and np.array_equal(
            self.values, other.values
        )

    def __len__(self) -> int:
        return len(self.part_ids)

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(self.part_ids, self.values.tolist()))

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["part_id", "value"], zip(self.part_ids, self.values.tolist()))

    @classmethod
    def from_csv(cls, path: str | Path) -> "MetricSeries":
        table = load_csv(path, id_column="part_id")
        if table.columns != ("value",):
            raise ParseError(f"{path}: expected columns (part_id, value)")
        return cls(part_ids=table.ids, values=table.values[:, 0])


def build_metric_series(
    table: RawTable,
    measurement_columns: Sequence[str],
    setpoints: Mapping[str, float] | None = None,
) -> MetricSeries:
    """Aggregate each observation's measurements into one metric value.

    Setpoints come either from the given mapping (one target per
    measurement name) or, when the mapping is None, from companion columns
    following the ``<name>.Setpoint`` convention. The table must already
    be cleaned; a missing measurement here is a contract violation.
    """
    if table.n_rows == 0:
        raise ValueError("cannot build a metric series from an empty table")
    measurement_columns = list(measurement_columns)
    if not measurement_columns:
        raise ValueError("at least one measurement column required")
    actuals = table.select(measurement_columns).values
    if setpoints is not None:
        missing = [c for c in measurement_columns if c not in setpoints]
        if missing:
            raise ValueError(f"no setpoint supplied for columns: {missing}")
        targets = np.array([setpoints[c] for c in measurement_columns], dtype=float)
    else:
        targets = table.select([f"{c}.Setpoint" for c in measurement_columns]).values

    if np.any(np.isnan(actuals)) or np.any(np.isnan(targets)):
        raise ValueError(
            "missing measurement or setpoint value: cleaning contract violated"
        )
    if np.any(targets <= 0):
        raise ValueError("setpoints must be strictly positive")

    # In C order each row is one contiguous block, which NumPy sums in the
    # same pairwise order as aggregate_quality sums a one-part block, so
    # row i equals that oracle bit for bit.
    deviations = np.ascontiguousarray(np.abs(actuals - targets) / targets)
    values = deviations.sum(axis=1) / len(measurement_columns)
    return MetricSeries(part_ids=table.ids, values=values)


@dataclass(frozen=True)
class ActorDataset:
    """One actor's private feature view, rows keyed by part id."""

    actor_id: str
    part_ids: tuple[str, ...]
    columns: tuple[str, ...]
    features: np.ndarray  # (n_rows, n_columns)
    shared_flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if len(self.columns) == 0:
            raise ValueError("an actor dataset needs at least one feature column")
        if features.shape != (len(self.part_ids), len(self.columns)):
            raise ValueError("features shape does not match ids x columns")
        if len(self.shared_flags) != len(self.columns):
            raise ValueError("one shared flag per column required")
        require_unique("part_id", self.part_ids)
        require_unique("column", self.columns)
        if not np.isfinite(features).all():
            raise ValueError(f"actor {self.actor_id!r}: missing or infinite feature values")
        features.setflags(write=False)
        object.__setattr__(self, "features", features)

    def rows_for(self, part_ids: Sequence[str]) -> np.ndarray:
        """Feature rows for the given part ids, in the given order."""
        index = {pid: i for i, pid in enumerate(self.part_ids)}
        try:
            positions = [index[pid] for pid in part_ids]
        except KeyError as exc:
            raise KeyError(f"part id {exc.args[0]!r} not in actor {self.actor_id!r}")
        return self.features[positions]

    def align(self, metric: MetricSeries) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Inner-join rows with a metric series by part id.

        Returns (features, targets, part_ids) in this dataset's own row
        order, covering exactly the ids present on both sides.
        """
        metric_map = metric.as_mapping()
        keep = [i for i, pid in enumerate(self.part_ids) if pid in metric_map]
        ids = tuple(self.part_ids[i] for i in keep)
        features = self.features[keep]
        targets = np.array([metric_map[pid] for pid in ids], dtype=float)
        return features, targets, ids


def partition_actors(
    table: RawTable,
    actor_schema: Mapping[str, str],
    shared_columns: Sequence[str] = (),
) -> list[ActorDataset]:
    """Split feature columns into per-actor private views.

    Every table column must belong to exactly one actor or be marked
    shared, and no shared column may be named twice; shared columns are
    copied into every actor's view and flagged.
    """
    shared = require_unique("shared column", list(shared_columns))
    for c in shared:
        if c not in table.columns:
            raise ValueError(f"shared column {c!r} not in table")
        if c in actor_schema:
            raise ValueError(f"column {c!r} is both shared and assigned to an actor")
    for c in actor_schema:
        if c not in table.columns:
            raise ValueError(f"assigned column {c!r} not in table")
    unassigned = [
        c for c in table.columns if c not in actor_schema and c not in shared
    ]
    if unassigned:
        raise ValueError(f"columns not assigned to any actor: {unassigned}")
    if table.values.size and np.any(np.isnan(table.values)):
        raise ValueError("table contains missing values; clean before partitioning")

    actor_order: list[str] = []
    for c in table.columns:
        actor = actor_schema.get(c)
        if actor is not None and actor not in actor_order:
            actor_order.append(actor)

    datasets = []
    for actor in actor_order:
        columns = [
            c for c in table.columns if actor_schema.get(c) == actor or c in shared
        ]
        flags = tuple(c in shared for c in columns)
        features = np.column_stack([table.column(c) for c in columns])
        datasets.append(
            ActorDataset(
                actor_id=actor,
                part_ids=table.ids,
                columns=tuple(columns),
                features=features,
                shared_flags=flags,
            )
        )
    return datasets


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic multi-actor dataset with known contributions."""

    actor_count: int
    features_per_actor: int
    signal_weights: tuple[float, ...]
    noise_std: float
    row_count: int
    cross_correlation: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.signal_weights, str):
            raise TypeError(f"signal_weights must be a list, got {self.signal_weights!r}")
        weights = tuple(require_real("signal_weights", w) for w in self.signal_weights)
        object.__setattr__(self, "signal_weights", weights)
        for name in ("noise_std", "cross_correlation"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        require_int("actor_count", self.actor_count, 2)
        require_int("features_per_actor", self.features_per_actor, 1)
        require_int("row_count", self.row_count, 200)
        require_int("seed", self.seed, 0)
        if len(self.signal_weights) != self.actor_count:
            raise ValueError("one signal weight per actor required")
        if any(w < 0 for w in self.signal_weights):
            raise ValueError("signal weights must be non-negative")
        if not self.noise_std > 0:
            raise ValueError("noise_std must be positive")
        if not 0.0 <= self.cross_correlation < 1.0:
            raise ValueError("cross_correlation must be in [0, 1)")


def _nonlinear_signal(features: np.ndarray) -> np.ndarray:
    """Fixed nonlinear response of one actor's feature block.

    Sum of per-feature sinusoids plus, when available, the product of the
    first two features. Nonlinear enough that plain linear fits cannot
    fully explain it, while each feature still carries a linear component.
    """
    signal = np.sin(features).sum(axis=1)
    if features.shape[1] >= 2:
        signal = signal + features[:, 0] * features[:, 1]
    return signal


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[list[ActorDataset], MetricSeries, dict[str, float]]:
    """Generate per-actor features and a metric with known contributions.

    The metric is the weighted sum of a fixed nonlinear response of each
    actor's features plus Gaussian noise, so the ground-truth contribution
    strength of each actor is its signal weight. A positive
    ``cross_correlation`` mixes the first (most upstream) actor's features
    into the last (most downstream) actor's features, emulating the
    feature collinearity that sequential processes accumulate.
    """
    rng = np.random.default_rng(spec.seed)
    n, k = spec.row_count, spec.features_per_actor
    part_ids = tuple(f"part-{i:05d}" for i in range(n))

    blocks = [rng.standard_normal((n, k)) for _ in range(spec.actor_count)]
    rho = spec.cross_correlation
    if rho > 0.0:
        # Mixing preserves unit marginal variance of the downstream block.
        blocks[-1] = np.sqrt(1.0 - rho * rho) * blocks[-1] + rho * blocks[0]

    metric = rng.normal(0.0, spec.noise_std, size=n)
    for weight, block in zip(spec.signal_weights, blocks):
        if weight > 0.0:
            metric = metric + weight * _nonlinear_signal(block)

    datasets = []
    for a, block in enumerate(blocks):
        columns = tuple(f"x{j}" for j in range(k))
        datasets.append(
            ActorDataset(
                actor_id=f"actor-{a + 1}",
                part_ids=part_ids,
                columns=columns,
                features=block,
                shared_flags=(False,) * k,
            )
        )
    series = MetricSeries(part_ids=part_ids, values=metric)
    truth = {d.actor_id: w for d, w in zip(datasets, spec.signal_weights)}
    return datasets, series, truth


def make_noise_actor(
    row_count: int,
    feature_count: int,
    part_ids: Sequence[str],
    seed: int,
) -> ActorDataset:
    """Pure-noise feature block used as the no-knowledge reference."""
    part_ids = tuple(part_ids)
    if len(part_ids) != row_count:
        raise ValueError("part_ids length must equal row_count")
    if feature_count < 1:
        raise ValueError("feature_count must be positive")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((row_count, feature_count))
    return ActorDataset(
        actor_id=NOISE_ACTOR_ID,
        part_ids=part_ids,
        columns=tuple(f"noise{j}" for j in range(feature_count)),
        features=features,
        shared_flags=(False,) * feature_count,
    )


def save_actor_datasets(datasets: Sequence[ActorDataset], out_dir: str | Path) -> None:
    """Write one CSV per actor plus a manifest describing shared columns.

    Every actor id must be a bare file name (see ``require_file_name``)
    and name one dataset only; nothing is written otherwise.
    """
    for ds in datasets:
        require_file_name("actor id", ds.actor_id)
    require_unique("actor id", [ds.actor_id for ds in datasets])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for ds in datasets:
        filename = f"{ds.actor_id}.csv"
        write_csv(
            out_dir / filename,
            ["part_id", *ds.columns],
            ([pid, *row] for pid, row in zip(ds.part_ids, ds.features.tolist())),
        )
        manifest.append(
            {
                "actor_id": ds.actor_id,
                "file": filename,
                "columns": list(ds.columns),
                "shared_flags": list(ds.shared_flags),
            }
        )
    write_json(out_dir / "manifest.json", {"actors": manifest})


def _read_manifest(in_dir: Path) -> list[dict]:
    """The manifest's entries, each checked whole; ParseError unless every
    entry has each field, its actor_id and file are bare file names, its
    shared_flags are booleans, and no other entry names its actor_id."""
    manifest_path = in_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {in_dir}")
    try:
        entries = parse_json(manifest_path.read_text(encoding="utf-8"))["actors"]
        for entry in entries:
            require_file_name("actor_id", entry["actor_id"])
            require_file_name("file", entry["file"])
            flags = entry["shared_flags"]
            if set(map(type, flags)) - {bool}:
                raise TypeError(f"shared_flags must be true or false, got {flags!r}")
            if "columns" not in entry:
                raise KeyError("columns")
        require_unique("actor_id", [entry["actor_id"] for entry in entries])
    except KeyError as exc:
        raise ParseError(f"{manifest_path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{manifest_path}: {exc}") from None
    return entries


def _load_entry(in_dir: Path, entry: dict) -> ActorDataset:
    """The dataset of an entry that ``_read_manifest`` checked."""
    table = load_csv(in_dir / entry["file"], id_column="part_id")
    if list(table.columns) != entry["columns"]:
        raise ParseError(f"{entry['file']}: columns do not match the manifest")
    return ActorDataset(
        actor_id=entry["actor_id"],
        part_ids=table.ids,
        columns=table.columns,
        features=table.values,
        shared_flags=tuple(entry["shared_flags"]),
    )


def load_actor_dataset(in_dir: str | Path, actor_id: str) -> ActorDataset:
    """Read one actor's dataset: the manifest and that actor's file only."""
    in_dir = Path(in_dir)
    entries = _read_manifest(in_dir)
    for entry in entries:
        if entry["actor_id"] == actor_id:
            return _load_entry(in_dir, entry)
    raise ValueError(
        f"actor {actor_id!r} not found in {in_dir} "
        f"(available: {', '.join(e['actor_id'] for e in entries)})"
    )


def list_actor_ids(in_dir: str | Path) -> list[str]:
    """The actor ids in a dataset directory, from its manifest alone."""
    return [entry["actor_id"] for entry in _read_manifest(Path(in_dir))]


def load_actor_datasets(in_dir: str | Path) -> list[ActorDataset]:
    """Read back the datasets written by :func:`save_actor_datasets`."""
    in_dir = Path(in_dir)
    return [_load_entry(in_dir, entry) for entry in _read_manifest(in_dir)]
