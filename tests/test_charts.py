"""Chart emission: the manifest, the CSV twins, the charted metric, and the bytes.

- Each job gets a `score`, `turns`, `decision` and `clock` chart, each an SVG
  and its CSV twin, listed job by job in name order, each SVG before its CSV.
- `CSVS`: a CSV twin is the header `config,<columns>` and the job's row, each
  number in `fmt`'s six significant digits: the score's mean and std (0 when
  the metric has none); the turns' min, inclusive quartiles, max and mean
  (one turn of 0 when there are none); the decision success rate; the mean
  wall clock in seconds (0 without one). An SVG labels a number with its CSV
  text, and a score with a spread gets an error bar capped at both ends.
- `PICKS`: the score chart, titled `<metric> (<job>)`, shows the requested
  metric, else accuracy, else the metric first by name. A requested metric a
  job lacks, a job without metrics, and no job each raise their ValueError
  before any chart is written.
- Every mean is `statistics.fmean`, bit for bit. One input gives the same
  bytes twice, and no SVG holds a date. Whatever a job name holds, every SVG
  is well-formed XML and every CSV row keeps its header's width.
"""

from __future__ import annotations

import csv
import re
import statistics
import tempfile
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, strategies as st

from agora import charts
from agora.charts import emit_charts
from agora.evaluation import EvalResult


def make_result(job: str = "majority", **overrides) -> EvalResult:
    fields = dict(
        job_name=job, repeats=2, mean={"accuracy": 0.75, "bleu": 0.4}, std={"accuracy": 0.05, "bleu": 0.01}, annotations={},
        metric_values={"accuracy": [1.0, 0.5], "bleu": [0.4, 0.4]}, decision_success_rate=0.9, turns=[1, 3, 3, 7], wall_clock_s=[1.5, 2.5],
    )
    return EvalResult(**{**fields, **overrides})


def test_the_manifest_lists_each_jobs_four_charts_in_job_order(tmp_path):
    manifest = emit_charts([make_result("zeta"), make_result("alpha")], tmp_path)
    kinds = ("score", "turns", "decision", "clock")
    assert manifest == [tmp_path / f"{kind}-{job}.{suffix}" for job in ("alpha", "zeta") for kind in kinds for suffix in ("svg", "csv")]
    assert all(p.exists() for p in manifest)


# -- CSV twins --

HEADERS = {"score": "mean,std", "turns": "min,q1,median,q3,max,mean", "decision": "success_rate", "clock": "mean_s"}

# The fields that differ from make_result's, and the row after `majority,` of each CSV twin named.
CSVS = {
    # Inclusive quartiles of turns [1, 3, 3, 7]: q1=2.5, median=3, q3=4; clocks [1.5, 2.5] average 2.
    "default": ({}, {"score": "0.75,0.05", "turns": "1,2.5,3,4,7,3.5", "decision": "0.9", "clock": "2"}),
    "one turn": ({"turns": [4]}, {"turns": "4,4,4,4,4,4"}),
    "no turns or clocks": ({"turns": [], "wall_clock_s": []}, {"turns": "0,0,0,0,0,0", "clock": "0"}),
    "a metric without a std": ({"std": {}}, {"score": "0.75,0"}),
    "six significant digits": (
        {"mean": {"accuracy": 1 / 3}, "std": {"accuracy": 0.000012345678}, "decision_success_rate": 1.0, "wall_clock_s": [125.0]},
        {"score": "0.333333,1.23457e-05", "decision": "1", "clock": "125"},
    ),
}


@pytest.mark.parametrize("fields, rows", CSVS.values(), ids=list(CSVS))
def test_each_csv_twin_is_its_header_and_the_jobs_row(tmp_path, fields, rows):
    emit_charts([make_result(**fields)], tmp_path)
    for kind, row in rows.items():
        assert (tmp_path / f"{kind}-majority.csv").read_text(encoding="utf-8") == f"config,{HEADERS[kind]}\nmajority,{row}\n"
    if "score" in rows:  # the bar's label is the mean's CSV text
        assert f">{rows['score'].split(',')[0]}</text>" in (tmp_path / "score-majority.svg").read_text(encoding="utf-8")


def test_a_score_with_a_spread_draws_an_error_bar_capped_at_both_ends(tmp_path):
    emit_charts([make_result("spread"), make_result("flat", std={"accuracy": 0.0})], tmp_path)
    lines = {job: (tmp_path / f"score-{job}.svg").read_text(encoding="utf-8").count("<line") for job in ("spread", "flat")}
    assert lines["spread"] - lines["flat"] == 3


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


# -- the charted metric --

# The requested metric and job a's means (None: no job), and the title of its score chart, or the ValueError.
PICKS = {
    "the requested metric": ("bleu", {"accuracy": 0.75, "bleu": 0.4}, "bleu (a)"),
    "accuracy by default": (None, {"abstentions": 0.1, "accuracy": 0.75}, "accuracy (a)"),
    "else the first metric by name": (None, {"meteor": 0.5, "bleu": 0.4}, "bleu (a)"),
    "a requested metric a job lacks": ("rouge9", {"accuracy": 0.75}, ValueError("metric 'rouge9' not present for job a")),
    "a job without metrics": (None, {}, ValueError("job a has no metrics to chart")),
    "no job": (None, None, ValueError("no evaluation results to chart")),
}


@pytest.mark.parametrize("metric, means, expected", PICKS.values(), ids=list(PICKS))
def test_the_score_chart_shows_the_picked_metric(tmp_path, metric, means, expected):
    results = [] if means is None else [make_result("a", mean=means)]
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
            emit_charts(results, tmp_path, metric=metric)
        assert not any(tmp_path.iterdir())
    else:
        emit_charts(results, tmp_path, metric=metric)
        assert f">{expected}</text>" in (tmp_path / "score-a.svg").read_text(encoding="utf-8")


# -- bytes and markup --


def test_emit_charts_is_byte_deterministic(tmp_path):
    results = [make_result("a"), make_result("b")]
    first = emit_charts(results, tmp_path / "one")
    second = emit_charts(results, tmp_path / "two")
    assert [(p.name, p.read_bytes()) for p in first] == [(p.name, p.read_bytes()) for p in second]


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
        texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
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
