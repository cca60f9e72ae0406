"""Comparison of the decentralised ranking with the centralised attribution.

Uncertainties rank contributors low-is-better while attribution scores
rank high-is-better, so the uncertainty series is negated and both series
are mapped onto the attribution series' (min, max) before they are put
side by side. Agreement is quantified with Kendall tau-b and Spearman
rho; everything is emitted as a CSV rank table, a flat key-value summary,
and a standalone SVG bar chart.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from chaincontrib.dataset import NOISE_ACTOR_ID, write_csv
from chaincontrib.protocol import ContributionRanking


def minmax_align(
    series: Sequence[float], target_min: float, target_max: float
) -> tuple[float, ...]:
    """Affine map sending the series' (min, max) onto the target endpoints.

    Order is preserved; a constant series has no such map and is rejected.
    """
    values = np.asarray(list(series), dtype=float)
    if values.size < 2:
        raise ValueError("alignment needs at least two values")
    if not target_min < target_max:
        raise ValueError("target_min must be strictly below target_max")
    low = float(values.min())
    high = float(values.max())
    if low == high:
        raise ValueError("constant series cannot be aligned to a non-trivial range")
    scaled = (values - low) / (high - low) * (target_max - target_min) + target_min
    return tuple(float(v) for v in scaled)


def invert_for_comparison(ranking: ContributionRanking) -> dict[str, float]:
    """Negated uncertainties: a high score now means high estimated
    contribution, matching the attribution axis."""
    if not ranking.entries:
        raise ValueError("ranking is empty")
    return {e.actor_id: -e.total_uncertainty for e in ranking.entries}


def _matched_pairs(
    rank_a: Mapping[str, float], rank_b: Mapping[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    if set(rank_a) != set(rank_b):
        raise ValueError("rank agreement needs identical actor sets")
    if len(rank_a) < 2:
        raise ValueError("rank agreement needs at least two actors")
    actors = sorted(rank_a)
    a = np.array([rank_a[x] for x in actors], dtype=float)
    b = np.array([rank_b[x] for x in actors], dtype=float)
    return a, b


def kendall_tau(rank_a: Mapping[str, float], rank_b: Mapping[str, float]) -> float:
    """Kendall tau-b by pair counting, with the tie correction."""
    a, b = _matched_pairs(rank_a, rank_b)
    n = a.shape[0]
    upper = np.triu_indices(n, k=1)
    da = np.sign(a[:, None] - a[None, :])[upper]
    db = np.sign(b[:, None] - b[None, :])[upper]
    ties_a = int(np.count_nonzero(da == 0))
    ties_b = int(np.count_nonzero(db == 0))
    untied = (da != 0) & (db != 0)
    concordant = int(np.count_nonzero(untied & (da == db)))
    discordant = int(np.count_nonzero(untied)) - concordant
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        raise ValueError("tau undefined: a series is constant")
    return (concordant - discordant) / denom


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # Ties share the average of the 1-based positions they would occupy:
    # a group of c equal values starting at position s gets s + (c + 1) / 2.
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    return (starts + (counts + 1) / 2)[inverse]


def spearman_rho(rank_a: Mapping[str, float], rank_b: Mapping[str, float]) -> float:
    """Pearson correlation of average ranks."""
    a, b = _matched_pairs(rank_a, rank_b)
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    if ra.std() == 0 or rb.std() == 0:
        raise ValueError("rho undefined: a series is constant")
    return float(np.corrcoef(ra, rb)[0, 1])


@dataclass(frozen=True)
class ComparisonRow:
    """One actor's results side by side; the field names are the rank table's header."""

    actor_id: str
    uncertainty: float
    aligned_uncertainty: float
    shap: float
    aligned_shap: float
    rank_dec: int
    rank_shap: int
    below_floor: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Both contribution series side by side, one row per actor in
    decentralised rank order."""

    rows: tuple[ComparisonRow, ...]
    kendall: float
    spearman: float
    noise_contrast: float

    @property
    def noise_actor_id(self) -> str | None:
        """``NOISE_ACTOR_ID`` when a row holds the noise actor, else None."""
        return next((r.actor_id for r in self.rows if r.actor_id == NOISE_ACTOR_ID), None)

    def __post_init__(self) -> None:
        if len(self.rows) >= 2:
            # Alignment contract: the two series share their endpoints.
            unc = [r.aligned_uncertainty for r in self.rows]
            shap = [r.aligned_shap for r in self.rows]
            if not math.isclose(min(unc), min(shap), abs_tol=1e-9) or not math.isclose(
                max(unc), max(shap), abs_tol=1e-9
            ):
                raise ValueError("aligned series must share min and max")


def build_comparison(
    ranking: ContributionRanking, shap_scores: Mapping[str, float]
) -> ComparisonReport:
    """Join the two result sets on actor id and compute agreement statistics.

    Rank agreement (tau, rho) is computed over the real actors only; the
    noise pseudo-actor's separation is captured by noise_contrast instead:
    the gap between the weakest real actor and the noise actor on the
    decentralised side, divided by the same gap on the attribution side.
    """
    ranked_ids = ranking.actor_order()
    if set(ranked_ids) != set(shap_scores):
        raise ValueError(
            "actor sets differ: "
            f"ranking has {sorted(ranked_ids)}, attribution has {sorted(shap_scores)}"
        )
    if len(ranked_ids) < 2:
        raise ValueError("comparison needs at least two actors")

    dec_scores = invert_for_comparison(ranking)
    shap_values = [float(shap_scores[a]) for a in ranked_ids]
    target_min = min(shap_values)
    target_max = max(shap_values)
    aligned_unc = minmax_align([dec_scores[a] for a in ranked_ids], target_min, target_max)
    aligned_shap = minmax_align(shap_values, target_min, target_max)

    shap_order = sorted(ranked_ids, key=lambda a: (-shap_scores[a], a))
    shap_rank = {a: i + 1 for i, a in enumerate(shap_order)}
    rows = tuple(
        ComparisonRow(
            actor_id=e.actor_id,
            uncertainty=e.total_uncertainty,
            aligned_uncertainty=unc,
            shap=shap,
            aligned_shap=aligned,
            rank_dec=e.estimated_rank,
            rank_shap=shap_rank[e.actor_id],
            below_floor=e.below_noise_floor,
        )
        for e, unc, shap, aligned in zip(
            ranking.entries, aligned_unc, shap_values, aligned_shap
        )
    )

    real = [r for r in rows if r.actor_id != NOISE_ACTOR_ID]
    if len(real) < 2:
        raise ValueError("comparison needs at least two real actors")
    real_dec = {r.actor_id: dec_scores[r.actor_id] for r in real}
    real_shap = {r.actor_id: r.shap for r in real}
    tau = kendall_tau(real_dec, real_shap)
    rho = spearman_rho(real_dec, real_shap)

    noise = next((r for r in rows if r.actor_id == NOISE_ACTOR_ID), None)
    if noise is not None:
        dec_gap = min(r.aligned_uncertainty for r in real) - noise.aligned_uncertainty
        shap_gap = min(r.aligned_shap for r in real) - noise.aligned_shap
        if shap_gap != 0.0:
            contrast = dec_gap / shap_gap
        elif dec_gap > 0.0:
            contrast = math.inf
        else:
            contrast = math.nan
    else:
        contrast = math.nan

    return ComparisonReport(rows=rows, kendall=tau, spearman=rho, noise_contrast=contrast)


RANK_TABLE_NAME = "rank_table.csv"
SUMMARY_NAME = "summary.txt"
CHART_NAME = "comparison.svg"


def emit_report(report: ComparisonReport, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write the rank table, the key-value summary, and the bar chart.

    Re-emitting the same report produces byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    table_path = out_dir / RANK_TABLE_NAME
    write_csv(
        table_path, [f.name for f in fields(ComparisonRow)], map(astuple, report.rows)
    )

    summary_path = out_dir / SUMMARY_NAME
    lines = [
        f"actors={len(report.rows)}",
        f"kendall_tau={repr(float(report.kendall))}",
        f"spearman_rho={repr(float(report.spearman))}",
        f"noise_contrast={repr(float(report.noise_contrast))}",
        f"noise_actor={report.noise_actor_id or 'absent'}",
        "ranking=" + ">".join(r.actor_id for r in report.rows),
    ]
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    chart_path = out_dir / CHART_NAME
    chart_path.write_text(_render_chart(report), encoding="utf-8")
    return table_path, summary_path, chart_path


def _render_chart(report: ComparisonReport) -> str:
    """Grouped bar chart of both aligned series, one group per actor."""
    width, height = 960, 420
    margin_left, margin_bottom, margin_top = 60, 90, 40
    plot_w = width - margin_left - 20
    plot_h = height - margin_top - margin_bottom

    values = [v for r in report.rows for v in (r.aligned_uncertainty, r.aligned_shap)]
    v_min = min(0.0, min(values))
    v_max = max(values)
    if v_max == v_min:
        v_max = v_min + 1.0

    def y_of(v: float) -> float:
        return margin_top + plot_h * (1 - (v - v_min) / (v_max - v_min))

    n = len(report.rows)
    group_w = plot_w / n
    bar_w = group_w * 0.32

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15" '
        'font-family="sans-serif">Contribution estimate vs centralised attribution '
        "(aligned)</text>",
    ]
    baseline = y_of(max(0.0, v_min))
    parts.append(
        f'<line x1="{margin_left}" y1="{baseline:.2f}" x2="{width - 20}" '
        f'y2="{baseline:.2f}" stroke="black" stroke-width="1"/>'
    )
    for i, row in enumerate(report.rows):
        gx = margin_left + i * group_w
        for k, (value, colour) in enumerate(
            [(row.aligned_uncertainty, "#4477aa"), (row.aligned_shap, "#ee6677")]
        ):
            x = gx + group_w * 0.15 + k * bar_w
            top = y_of(max(value, 0.0))
            bottom = y_of(min(value, 0.0))
            parts.append(
                f'<rect x="{x:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
                f'height="{max(bottom - top, 0.5):.2f}" fill="{colour}"/>'
            )
        label_x = gx + group_w / 2
        label_y = height - margin_bottom + 16
        # An actor id is text to XML: escape the three characters that are markup.
        label = row.actor_id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{label_x:.2f}" y="{label_y:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" '
            f'transform="rotate(-35 {label_x:.2f} {label_y:.2f})">{label}</text>'
        )
    parts.append(
        f'<rect x="{margin_left}" y="{height - 28}" width="12" height="12" fill="#4477aa"/>'
        f'<text x="{margin_left + 18}" y="{height - 18}" font-size="12" '
        'font-family="sans-serif">decentralised contribution score</text>'
    )
    parts.append(
        f'<rect x="{margin_left + 260}" y="{height - 28}" width="12" height="12" fill="#ee6677"/>'
        f'<text x="{margin_left + 278}" y="{height - 18}" font-size="12" '
        'font-family="sans-serif">centralised attribution</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
