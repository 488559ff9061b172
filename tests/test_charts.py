"""Chart emission: manifest arithmetic, CSV twins, byte determinism."""

from __future__ import annotations

import csv
import statistics
import tempfile
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, strategies as st

from agora import charts
from agora.charts import emit_charts, fmt
from agora.evaluation import EvalResult


def make_result(job: str = "majority", **overrides) -> EvalResult:
    fields = dict(
        job_name=job,
        repeats=2,
        mean={"accuracy": 0.75, "bleu": 0.4},
        std={"accuracy": 0.05, "bleu": 0.01},
        annotations={},
        metric_values={"accuracy": [1.0, 0.5], "bleu": [0.4, 0.4]},
        decision_success_rate=0.9,
        turns=[1, 3, 3, 7],
        wall_clock_s=[1.5, 2.5],
    )
    fields.update(overrides)
    return EvalResult(**fields)


def test_fmt_is_six_significant_digits():
    assert fmt(0.3333333333) == "0.333333"
    assert fmt(1.0) == "1"
    assert fmt(125.0) == "125"
    assert fmt(0.000012345678) == "1.23457e-05"


def test_emit_charts_manifest_counts(tmp_path):
    results = [make_result("a"), make_result("b")]
    manifest = emit_charts(results, tmp_path)
    # Four kinds per job, each an SVG plus a CSV: 2 jobs -> 16 files.
    assert len(manifest) == 16
    names = sorted(p.name for p in manifest)
    for kind in ("score", "turns", "decision", "clock"):
        for job in ("a", "b"):
            assert f"{kind}-{job}.svg" in names
            assert f"{kind}-{job}.csv" in names
    assert all(p.exists() for p in manifest)


def test_emit_charts_sorted_by_job_name(tmp_path):
    manifest = emit_charts([make_result("zeta"), make_result("alpha")], tmp_path)
    order = [p.stem for p in manifest if p.suffix == ".svg"]
    assert order == [
        "score-alpha",
        "turns-alpha",
        "decision-alpha",
        "clock-alpha",
        "score-zeta",
        "turns-zeta",
        "decision-zeta",
        "clock-zeta",
    ]


def test_score_csv_schema(tmp_path):
    emit_charts([make_result()], tmp_path)
    text = (tmp_path / "score-majority.csv").read_text(encoding="utf-8")
    assert text == "config,mean,std\nmajority,0.75,0.05\n"


def test_turns_csv_quartiles(tmp_path):
    emit_charts([make_result(turns=[1, 3, 3, 7])], tmp_path)
    text = (tmp_path / "turns-majority.csv").read_text(encoding="utf-8")
    # Inclusive quartiles of [1, 3, 3, 7]: q1=2.5, median=3, q3=4.
    assert text == "config,min,q1,median,q3,max,mean\nmajority,1,2.5,3,4,7,3.5\n"


def test_decision_and_clock_csv(tmp_path):
    emit_charts([make_result()], tmp_path)
    decision = (tmp_path / "decision-majority.csv").read_text(encoding="utf-8")
    assert decision == "config,success_rate\nmajority,0.9\n"
    clock = (tmp_path / "clock-majority.csv").read_text(encoding="utf-8")
    assert clock == "config,mean_s\nmajority,2\n"


def test_svg_and_csv_share_number_rendering(tmp_path):
    result = make_result(mean={"accuracy": 1 / 3}, std={"accuracy": 0.0})
    emit_charts([result], tmp_path)
    svg = (tmp_path / "score-majority.svg").read_text(encoding="utf-8")
    csv_text = (tmp_path / "score-majority.csv").read_text(encoding="utf-8")
    assert fmt(1 / 3) in svg
    assert fmt(1 / 3) in csv_text


def test_a_score_with_a_spread_draws_an_error_bar_capped_at_both_ends(tmp_path):
    emit_charts([make_result("spread"), make_result("flat", std={"accuracy": 0.0})], tmp_path)
    lines = {job: (tmp_path / f"score-{job}.svg").read_text(encoding="utf-8").count("<line") for job in ("spread", "flat")}
    assert lines["spread"] - lines["flat"] == 3


def test_emit_charts_is_byte_deterministic(tmp_path):
    results = [make_result("a"), make_result("b")]
    first = emit_charts(results, tmp_path / "one")
    second = emit_charts(results, tmp_path / "two")
    for p1, p2 in zip(first, second):
        assert p1.name == p2.name
        assert p1.read_bytes() == p2.read_bytes()


def test_metric_selection(tmp_path):
    # Explicit metric wins; accuracy is the default, even after a metric
    # that sorts first; absence falls back to the alphabetically first metric.
    emit_charts([make_result()], tmp_path / "explicit", metric="bleu")
    svg = (tmp_path / "explicit" / "score-majority.svg").read_text(encoding="utf-8")
    assert "bleu (majority)" in svg

    emit_charts([make_result(mean={"abstentions": 0.1, "accuracy": 0.75})], tmp_path / "default")
    svg = (tmp_path / "default" / "score-majority.svg").read_text(encoding="utf-8")
    assert "accuracy (majority)" in svg

    free = make_result(mean={"meteor": 0.5, "bleu": 0.4}, std={})
    emit_charts([free], tmp_path / "fallback")
    svg = (tmp_path / "fallback" / "score-majority.svg").read_text(encoding="utf-8")
    assert "bleu (majority)" in svg


def test_metric_selection_errors(tmp_path):
    with pytest.raises(ValueError, match="not present"):
        emit_charts([make_result()], tmp_path, metric="rouge9")
    with pytest.raises(ValueError, match="no metrics"):
        emit_charts([make_result(mean={}, std={})], tmp_path)


def test_emit_charts_rejects_empty_input(tmp_path):
    with pytest.raises(ValueError, match="no evaluation results to chart"):
        emit_charts([], tmp_path)


def test_single_turn_quartiles_collapse(tmp_path):
    emit_charts([make_result(turns=[4])], tmp_path)
    text = (tmp_path / "turns-majority.csv").read_text(encoding="utf-8")
    assert text == "config,min,q1,median,q3,max,mean\nmajority,4,4,4,4,4,4\n"


def test_svg_has_no_timestamps(tmp_path):
    emit_charts([make_result()], tmp_path)
    svg = (tmp_path / "score-majority.svg").read_text(encoding="utf-8")
    assert "date" not in svg.lower()
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_every_svg_is_well_formed_xml_for_a_job_name_with_markup(tmp_path):
    result = make_result("q&a<2>", mean={"r&d": 0.5}, std={"r&d": 0.1})
    svgs = [p for p in emit_charts([result], tmp_path) if p.suffix == ".svg"]
    assert len(svgs) == 4
    for svg in svgs:
        texts = [
            node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")
        ]
        assert "q&a<2>" in texts


def test_every_csv_row_keeps_the_header_width_for_a_job_name_with_csv_syntax(tmp_path):
    results = [make_result("a,b"), make_result('q"x')]
    tables = [p for p in emit_charts(results, tmp_path) if p.suffix == ".csv"]
    assert len(tables) == 8
    for table in tables:
        with table.open(encoding="utf-8", newline="") as handle:
            header, row = csv.reader(handle)
        assert len(row) == len(header)
        assert row[0] == table.stem.split("-", 1)[1]


@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=20),
    st.lists(st.floats(0, 1e6), min_size=1, max_size=20),
)
def test_chart_means_equal_statistics_fmean_bit_for_bit(turns, clocks):
    # The CSV cells carry every bit of each number once fmt writes hex.
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.setattr(charts, "fmt", lambda value: float(value).hex())
        emit_charts([make_result("job", turns=turns, wall_clock_s=clocks)], out)
        turns_row = (Path(out) / "turns-job.csv").read_text(encoding="utf-8").split(",")
        clock_row = (Path(out) / "clock-job.csv").read_text(encoding="utf-8").split(",")
    assert turns_row[-1] == statistics.fmean(turns).hex() + "\n"
    assert clock_row[-1] == statistics.fmean(clocks).hex() + "\n"
