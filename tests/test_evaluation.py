"""Alignment, rank-agreement statistics, and report emission tests.

scipy.stats is the oracle for the hand-rolled tau-b and Spearman rho.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from xml.etree import ElementTree

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincontrib.dataset import NOISE_ACTOR_ID
from chaincontrib.evaluation import (
    CHART_NAME,
    RANK_TABLE_NAME,
    SUMMARY_NAME,
    ComparisonReport,
    ComparisonRow,
    build_comparison,
    emit_report,
    invert_for_comparison,
    kendall_tau,
    minmax_align,
    spearman_rho,
)
from chaincontrib.protocol import UncertaintyResponse, rank_contributions


def make_ranking(real: dict[str, float], noise_uncertainty: float, slack: float = 1.0):
    call_id = "call-000001"
    responses = [
        UncertaintyResponse(actor_id=a, call_id=call_id, total_uncertainty=u)
        for a, u in real.items()
    ]
    noise = UncertaintyResponse(
        actor_id=NOISE_ACTOR_ID, call_id=call_id, total_uncertainty=noise_uncertainty
    )
    return rank_contributions(responses, noise, slack=slack)


# ------------------------------------------------------------------ alignment


def test_minmax_endpoint_mapping() -> None:
    assert minmax_align([0.0, 10.0], 0.0, 1.0) == (0.0, 1.0)


def test_minmax_identity_when_already_spanning() -> None:
    assert minmax_align([0.0, 0.25, 1.0], 0.0, 1.0) == (0.0, 0.25, 1.0)


def test_minmax_desk_check_midpoint() -> None:
    aligned = minmax_align([2.0, 4.0, 6.0], 0.0, 1.0)
    assert aligned == pytest.approx((0.0, 0.5, 1.0))


def test_minmax_rejects_constant_series() -> None:
    with pytest.raises(ValueError, match="constant"):
        minmax_align([3.0, 3.0, 3.0], 0.0, 1.0)


def test_minmax_rejects_bad_targets() -> None:
    with pytest.raises(ValueError, match="target"):
        minmax_align([1.0, 2.0], 1.0, 1.0)


def test_minmax_rejects_single_value() -> None:
    with pytest.raises(ValueError, match="two values"):
        minmax_align([1.0], 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=10,
    ),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    shift=st.floats(min_value=-1e6, max_value=1e6),
)
def test_minmax_affine_invariance(values, scale, shift) -> None:
    if max(values) - min(values) < 1e-6:
        return
    base = minmax_align(values, 0.0, 1.0)
    moved = minmax_align([scale * v + shift for v in values], 0.0, 1.0)
    np.testing.assert_allclose(moved, base, atol=1e-6)


def test_minmax_preserves_order() -> None:
    values = [5.0, 1.0, 3.0, 9.0]
    aligned = minmax_align(values, 0.0, 1.0)
    assert np.all(np.argsort(values) == np.argsort(aligned))


# ------------------------------------------------------------------ inversion


def test_invert_reverses_order() -> None:
    ranking = make_ranking({"a": 1.0, "b": 3.0}, noise_uncertainty=4.0)
    scores = invert_for_comparison(ranking)
    assert scores["a"] > scores["b"] > scores[NOISE_ACTOR_ID]


def test_invert_keeps_equal_scores_equal() -> None:
    ranking = make_ranking({"a": 2.0, "b": 2.0}, noise_uncertainty=4.0)
    scores = invert_for_comparison(ranking)
    assert scores["a"] == scores["b"]


def test_invert_then_align_preserves_argmax() -> None:
    ranking = make_ranking({"a": 0.5, "b": 2.0, "c": 1.0}, noise_uncertainty=3.0)
    scores = invert_for_comparison(ranking)
    actors = sorted(scores)
    aligned = minmax_align([scores[x] for x in actors], 0.0, 1.0)
    assert actors[int(np.argmax(aligned))] == "a"


# ------------------------------------------------------------------- kendall


def test_kendall_identical_rankings() -> None:
    a = {f"x{i}": float(i) for i in range(5)}
    assert kendall_tau(a, dict(a)) == pytest.approx(1.0)


def test_kendall_reversed_rankings() -> None:
    a = {f"x{i}": float(i) for i in range(5)}
    b = {k: -v for k, v in a.items()}
    assert kendall_tau(a, b) == pytest.approx(-1.0)


def test_kendall_adjacent_swap_desk_check() -> None:
    # One discordant pair out of C(5,2)=10: tau = 1 - 2/10.
    a = {"v": 1.0, "w": 2.0, "x": 3.0, "y": 4.0, "z": 5.0}
    b = {"v": 1.0, "w": 3.0, "x": 2.0, "y": 4.0, "z": 5.0}
    assert kendall_tau(a, b) == pytest.approx(0.8)


def test_kendall_tie_correction_desk_check() -> None:
    # 5 concordant pairs, one tie in b: 5 / sqrt(6 * 5).
    a = {"p": 1.0, "q": 2.0, "r": 3.0, "s": 4.0}
    b = {"p": 1.0, "q": 1.0, "r": 2.0, "s": 3.0}
    assert kendall_tau(a, b) == pytest.approx(5 / math.sqrt(30))


def test_kendall_rejects_small_or_mismatched_inputs() -> None:
    with pytest.raises(ValueError):
        kendall_tau({"a": 1.0}, {"a": 2.0})
    with pytest.raises(ValueError):
        kendall_tau({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})


def test_kendall_symmetric() -> None:
    a = {"a": 1.0, "b": 5.0, "c": 3.0, "d": 3.0}
    b = {"a": 2.0, "b": 1.0, "c": 4.0, "d": 0.5}
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
        ),
        min_size=2,
        max_size=12,
    )
)
def test_rank_statistics_match_scipy(scores) -> None:
    a_vals = [s[0] for s in scores]
    b_vals = [s[1] for s in scores]
    if len(set(a_vals)) < 2 or len(set(b_vals)) < 2:
        return
    a = {f"x{i}": float(v) for i, v in enumerate(a_vals)}
    b = {f"x{i}": float(v) for i, v in enumerate(b_vals)}
    expected_tau = scipy.stats.kendalltau(a_vals, b_vals, variant="b").statistic
    assert kendall_tau(a, b) == pytest.approx(expected_tau, abs=1e-12)
    expected_rho = scipy.stats.spearmanr(a_vals, b_vals).statistic
    assert spearman_rho(a, b) == pytest.approx(expected_rho, abs=1e-12)


def tau_by_pair_loop(a: list[float], b: list[float]) -> float:
    """Reference: Kendall tau-b by visiting every pair in Python."""
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = np.sign(a[i] - a[j])
            db = np.sign(b[i] - b[j])
            ties_a += da == 0
            ties_b += db == 0
            if da != 0 and db != 0:
                concordant += da == db
                discordant += da != db
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - ties_a) * (n0 - ties_b))


def average_ranks_by_loop(values: list[float]) -> np.ndarray:
    """Reference: walk the sorted order and give each run of ties its mean position."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
        ),
        min_size=2,
        max_size=12,
    ),
    scale=st.sampled_from([1.0, 0.1, -2.5]),
)
def test_rank_statistics_equal_the_python_loops(scores, scale) -> None:
    a_vals = [s[0] * scale for s in scores]
    b_vals = [float(s[1]) for s in scores]
    if len(set(a_vals)) < 2 or len(set(b_vals)) < 2:
        return
    # Zero-padded ids sort in list order, so both sides see the same arrays.
    a = {f"x{i:02d}": v for i, v in enumerate(a_vals)}
    b = {f"x{i:02d}": v for i, v in enumerate(b_vals)}
    assert kendall_tau(a, b) == tau_by_pair_loop(a_vals, b_vals)
    rho = np.corrcoef(average_ranks_by_loop(a_vals), average_ranks_by_loop(b_vals))[0, 1]
    assert spearman_rho(a, b) == float(rho)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kendall_invariant_under_monotone_rescoring(n, seed) -> None:
    rng = np.random.default_rng(seed)
    a = {f"x{i}": float(v) for i, v in enumerate(rng.permutation(n))}
    b = {f"x{i}": float(v) for i, v in enumerate(rng.permutation(n))}
    rescored = {k: math.exp(v) + 3.0 for k, v in a.items()}  # strictly monotone
    assert kendall_tau(rescored, b) == pytest.approx(kendall_tau(a, b))


def test_spearman_monotone_nonlinear_is_one() -> None:
    a = {f"x{i}": float(i) for i in range(6)}
    b = {k: v**3 + 1.0 for k, v in a.items()}
    assert spearman_rho(a, b) == pytest.approx(1.0)
    c = {k: -v for k, v in a.items()}
    assert spearman_rho(a, c) == pytest.approx(-1.0)


# ---------------------------------------------------------------- comparison


def desk_report(shap_b: float = 3.0) -> ComparisonReport:
    ranking = make_ranking({"actor-a": 1.0, "actor-b": 2.0}, noise_uncertainty=3.0)
    shap = {"actor-a": 5.0, "actor-b": shap_b, NOISE_ACTOR_ID: 1.0}
    return build_comparison(ranking, shap)


def test_build_comparison_desk_check() -> None:
    # Negated uncertainties (-1,-2,-3) mapped onto the shap span (1,5)
    # give 5, 3, 1: identical to the shap side, so tau = 1.
    report = desk_report()
    assert [r.actor_id for r in report.rows] == ["actor-a", "actor-b", NOISE_ACTOR_ID]
    assert [r.aligned_uncertainty for r in report.rows] == pytest.approx([5.0, 3.0, 1.0])
    assert [r.aligned_shap for r in report.rows] == pytest.approx([5.0, 3.0, 1.0])
    assert report.kendall == pytest.approx(1.0)
    assert report.spearman == pytest.approx(1.0)
    assert [r.rank_dec for r in report.rows] == [1, 2, 3]
    assert [r.rank_shap for r in report.rows] == [1, 2, 3]
    # Equal gaps on both sides: contrast ratio 1.
    assert report.noise_contrast == pytest.approx(1.0)


def test_noise_contrast_ratio_scales_with_shap_gap() -> None:
    # Decentralised gap stays 2; shap gap shrinks to 0.5.
    report = desk_report(shap_b=1.5)
    assert report.noise_contrast == pytest.approx(2.0 / 0.5)


def test_build_comparison_rejects_mismatched_actor_sets() -> None:
    ranking = make_ranking({"actor-a": 1.0, "actor-b": 2.0}, noise_uncertainty=3.0)
    with pytest.raises(ValueError, match="actor sets"):
        build_comparison(ranking, {"actor-a": 1.0, NOISE_ACTOR_ID: 0.1})


def test_build_comparison_tau_ignores_noise_actor() -> None:
    # Noise is ranked last on the decentralised side but carries a huge
    # attribution: tau over real actors must remain 1.
    ranking = make_ranking({"actor-a": 1.0, "actor-b": 2.0}, noise_uncertainty=9.0)
    shap = {"actor-a": 5.0, "actor-b": 3.0, NOISE_ACTOR_ID: 100.0}
    report = build_comparison(ranking, shap)
    assert report.kendall == pytest.approx(1.0)


def test_aligned_series_share_endpoints() -> None:
    ranking = make_ranking(
        {"a": 0.3, "b": 1.7, "c": 0.9, "d": 1.1}, noise_uncertainty=2.4
    )
    shap = {"a": 11.0, "b": 2.0, "c": 7.0, "d": 3.0, NOISE_ACTOR_ID: 1.0}
    report = build_comparison(ranking, shap)
    aligned_unc = [r.aligned_uncertainty for r in report.rows]
    aligned_shap = [r.aligned_shap for r in report.rows]
    assert min(aligned_unc) == pytest.approx(min(aligned_shap))
    assert max(aligned_unc) == pytest.approx(max(aligned_shap))


def test_below_floor_flags_carried_into_report() -> None:
    ranking = make_ranking({"a": 0.5, "b": 5.0}, noise_uncertainty=2.0)
    shap = {"a": 3.0, "b": 1.0, NOISE_ACTOR_ID: 0.5}
    report = build_comparison(ranking, shap)
    flags = {r.actor_id: r.below_floor for r in report.rows}
    assert flags == {"a": False, "b": True, NOISE_ACTOR_ID: False}


def test_report_validates_aligned_endpoints() -> None:
    with pytest.raises(ValueError, match="share min and max"):
        ComparisonReport(
            rows=(
                ComparisonRow("a", 1.0, 0.0, 1.0, 0.0, 1, 2, False),
                ComparisonRow("b", 2.0, 1.0, 2.0, 2.0, 2, 1, False),
            ),
            kendall=0.0,
            spearman=0.0,
            noise_contrast=math.nan,
        )


# ------------------------------------------------------------------ emission


def test_emit_report_writes_three_files(tmp_path) -> None:
    report = desk_report()
    paths = emit_report(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {RANK_TABLE_NAME, SUMMARY_NAME, CHART_NAME}
    for p in paths:
        assert p.exists() and p.stat().st_size > 0


def test_emit_report_csv_is_byte_identical_on_reemit(tmp_path) -> None:
    report = desk_report()
    first, _, _ = emit_report(report, tmp_path / "a")
    second, _, _ = emit_report(report, tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()


def test_rank_table_columns_and_order(tmp_path) -> None:
    report = desk_report()
    table, _, _ = emit_report(report, tmp_path)
    lines = table.read_text().strip().splitlines()
    assert lines[0] == (
        "actor_id,uncertainty,aligned_uncertainty,shap,aligned_shap,"
        "rank_dec,rank_shap,below_floor"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [r.actor_id for r in report.rows]
    assert [int(r[5]) for r in rows] == [1, 2, 3]
    assert float(rows[0][1]) == pytest.approx(1.0)  # raw uncertainty survives
    assert rows[0][7] == "false"


def test_rank_table_reads_back_as_the_report_rows(tmp_path) -> None:
    ranking = make_ranking({"a": 0.5, "b": 5.0, "c": 1.0 / 3.0}, noise_uncertainty=2.0)
    report = build_comparison(
        ranking, {"a": 3.0, "b": 0.1, "c": 2.0 / 7.0, NOISE_ACTOR_ID: 0.05}
    )
    table, _, _ = emit_report(report, tmp_path)
    with table.open(newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    assert list(records[0]) == [f.name for f in dataclasses.fields(ComparisonRow)]
    read_back = tuple(
        ComparisonRow(
            actor_id=r["actor_id"],
            uncertainty=float(r["uncertainty"]),
            aligned_uncertainty=float(r["aligned_uncertainty"]),
            shap=float(r["shap"]),
            aligned_shap=float(r["aligned_shap"]),
            rank_dec=int(r["rank_dec"]),
            rank_shap=int(r["rank_shap"]),
            below_floor=r["below_floor"] == "true",
        )
        for r in records
    )
    assert read_back == report.rows
    assert {r["below_floor"] for r in records} == {"true", "false"}


def test_summary_is_flat_key_value(tmp_path) -> None:
    _, summary, _ = emit_report(desk_report(), tmp_path)
    content = summary.read_text()
    lines = content.strip().splitlines()
    assert all("=" in line for line in lines)
    parsed = dict(line.split("=", 1) for line in lines)
    assert float(parsed["kendall_tau"]) == pytest.approx(1.0)
    assert float(parsed["spearman_rho"]) == pytest.approx(1.0)
    assert float(parsed["noise_contrast"]) == pytest.approx(1.0)
    assert parsed["actors"] == "3"


def test_chart_contains_noise_bar_label(tmp_path) -> None:
    _, _, chart = emit_report(desk_report(), tmp_path)
    svg = chart.read_text()
    assert svg.startswith("<svg")
    assert NOISE_ACTOR_ID in svg
    assert svg.count("<rect") >= 2 * 3  # two bars per actor


def test_chart_is_well_formed_xml_for_ids_with_markup(tmp_path) -> None:
    # Ingest takes actor ids from a config, e.g. a supplier "Smith & Sons".
    ids = ["Smith & Sons", "c<d", 'e>"f\'']
    ranking = make_ranking(dict(zip(ids, (1.0, 2.0, 3.0))), noise_uncertainty=4.0)
    shap = {**dict(zip(ids, (4.0, 3.0, 2.0))), NOISE_ACTOR_ID: 1.0}
    report = build_comparison(ranking, shap)
    _, _, chart = emit_report(report, tmp_path)
    root = ElementTree.fromstring(chart.read_text(encoding="utf-8"))
    # The actor labels are the rotated text elements, one per row in order.
    texts = root.iter("{http://www.w3.org/2000/svg}text")
    labels = [t.text for t in texts if "transform" in t.attrib]
    assert labels == [r.actor_id for r in report.rows]
    assert set(ids) < set(labels)


def test_emit_report_unwritable_target_raises(tmp_path) -> None:
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(OSError):
        emit_report(desk_report(), blocker / "out")
