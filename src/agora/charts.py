"""Deterministic SVG charts (plus CSV twins) for evaluated jobs.

Charts are plain hand-assembled SVG so identical inputs produce identical
bytes; there are no timestamps, random ids, or library version drift.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional, Sequence

from .datasets import write_output
from .evaluation import EvalResult, fmean


WIDTH, HEIGHT = 480, 320
LEFT, RIGHT, TOP, BOTTOM = 70, 20, 46, 270


def escape(text: str) -> str:
    """XML character data: `&` first, so the entities the others add stay whole."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def fmt(value: float) -> str:
    """The one number formatter: CSV cells and SVG labels must match exactly."""
    return f"{value:.6g}"


def _y(value: float, scale: float) -> float:
    return BOTTOM - (value / scale) * (BOTTOM - TOP)


def _frame(title: str, scale: float, y_label: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="15">{escape(title)}</text>',
        f'<line x1="{LEFT}" y1="{TOP}" x2="{LEFT}" y2="{BOTTOM}" stroke="black"/>',
        f'<line x1="{LEFT}" y1="{BOTTOM}" x2="{WIDTH - RIGHT}" y2="{BOTTOM}" stroke="black"/>',
        f'<text x="16" y="{(TOP + BOTTOM) // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(TOP + BOTTOM) // 2})">{escape(y_label)}</text>',
    ]
    for tick in (0.0, scale / 2, scale):
        y = _y(tick, scale)
        parts.append(
            f'<line x1="{LEFT - 4}" y1="{fmt(y)}" x2="{LEFT}" y2="{fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{LEFT - 8}" y="{fmt(y + 4)}" text-anchor="end">{fmt(tick)}</text>'
        )
    return parts


def _close(parts: list[str]) -> str:
    return "\n".join(parts + ["</svg>"]) + "\n"


def _bar_svg(
    title: str,
    label: str,
    value: float,
    err: Optional[float],
    scale: float,
    y_label: str,
) -> str:
    parts = _frame(title, scale, y_label)
    center = (LEFT + WIDTH - RIGHT) / 2
    bar_w = 80.0
    top = _y(value, scale)
    parts.append(
        f'<rect x="{fmt(center - bar_w / 2)}" y="{fmt(top)}" width="{fmt(bar_w)}" '
        f'height="{fmt(BOTTOM - top)}" fill="#4878a8"/>'
    )
    if err is not None and err > 0:
        hi = _y(value + err, scale)
        lo = _y(max(value - err, 0.0), scale)
        parts.append(
            f'<line x1="{fmt(center)}" y1="{fmt(hi)}" x2="{fmt(center)}" y2="{fmt(lo)}" stroke="black"/>'
        )
        for y in (hi, lo):
            parts.append(
                f'<line x1="{fmt(center - 10)}" y1="{fmt(y)}" x2="{fmt(center + 10)}" y2="{fmt(y)}" stroke="black"/>'
            )
    parts.append(
        f'<text x="{fmt(center)}" y="{fmt(top - 8)}" text-anchor="middle">{fmt(value)}</text>'
    )
    parts.append(
        f'<text x="{fmt(center)}" y="{BOTTOM + 20}" text-anchor="middle">{escape(label)}</text>'
    )
    return _close(parts)


def _box_svg(
    title: str,
    label: str,
    low: float,
    q1: float,
    median: float,
    q3: float,
    high: float,
    mean: float,
    scale: float,
) -> str:
    parts = _frame(title, scale, "turns")
    center = (LEFT + WIDTH - RIGHT) / 2
    box_w = 80.0
    x0, x1 = center - box_w / 2, center + box_w / 2
    y_low, y_q1 = _y(low, scale), _y(q1, scale)
    y_med, y_q3, y_high = _y(median, scale), _y(q3, scale), _y(high, scale)
    parts += [
        f'<line x1="{fmt(center)}" y1="{fmt(y_high)}" x2="{fmt(center)}" y2="{fmt(y_q3)}" stroke="black"/>',
        f'<line x1="{fmt(center)}" y1="{fmt(y_q1)}" x2="{fmt(center)}" y2="{fmt(y_low)}" stroke="black"/>',
        f'<line x1="{fmt(x0)}" y1="{fmt(y_high)}" x2="{fmt(x1)}" y2="{fmt(y_high)}" stroke="black"/>',
        f'<line x1="{fmt(x0)}" y1="{fmt(y_low)}" x2="{fmt(x1)}" y2="{fmt(y_low)}" stroke="black"/>',
        f'<rect x="{fmt(x0)}" y="{fmt(y_q3)}" width="{fmt(box_w)}" '
        f'height="{fmt(y_q1 - y_q3)}" fill="#a8c8e8" stroke="black"/>',
        f'<line x1="{fmt(x0)}" y1="{fmt(y_med)}" x2="{fmt(x1)}" y2="{fmt(y_med)}" stroke="black" stroke-width="2"/>',
        f'<circle cx="{fmt(center)}" cy="{fmt(_y(mean, scale))}" r="4" fill="#d04848"/>',
        f'<text x="{fmt(center + box_w)}" y="{fmt(_y(mean, scale) + 4)}">mean {fmt(mean)}</text>',
        f'<text x="{fmt(center)}" y="{BOTTOM + 20}" text-anchor="middle">{escape(label)}</text>',
    ]
    return _close(parts)


def _quartiles(values: Sequence[int]) -> tuple[float, float, float]:
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _pick_metric(result: EvalResult, requested: Optional[str]) -> str:
    if requested is not None:
        if requested not in result.mean:
            raise ValueError(
                f"metric {requested!r} not present for job {result.job_name}"
            )
        return requested
    if "accuracy" in result.mean:
        return "accuracy"
    if not result.mean:
        raise ValueError(f"job {result.job_name} has no metrics to chart")
    return sorted(result.mean)[0]


def emit_charts(
    eval_results: Sequence[EvalResult],
    out_dir: str | Path,
    metric: Optional[str] = None,
) -> list[Path]:
    """Four chart kinds per job, each an SVG with a CSV carrying the numbers. Every
    job's metric is picked before the first chart is written, so a job without one leaves none."""
    if not eval_results:
        raise ValueError("no evaluation results to chart")
    import csv

    out = Path(out_dir)
    manifest: list[Path] = []

    def write(kind: str, job: str, svg: str, columns: str, *values: float) -> None:
        """`{kind}-{job}.svg`, and its CSV twin: a `config,{columns}` header and the job's row."""
        svg_path = out / f"{kind}-{job}.svg"
        csv_path = out / f"{kind}-{job}.csv"
        write_output(svg_path, [svg])
        table = io.StringIO()
        rows = [["config", *columns.split(",")], [job, *map(fmt, values)]]
        csv.writer(table, lineterminator="\n").writerows(rows)
        write_output(csv_path, [table.getvalue()])
        manifest.extend([svg_path, csv_path])

    ordered = sorted(eval_results, key=lambda r: r.job_name)
    for result, chosen in zip(ordered, [_pick_metric(result, metric) for result in ordered]):
        job = result.job_name
        mean = result.mean[chosen]
        std = result.std.get(chosen, 0.0)
        svg = _bar_svg(f"{chosen} ({job})", job, mean, std, 1.0, chosen)
        write("score", job, svg, "mean,std", mean, std)

        turns = result.turns or [0]
        low, high = float(min(turns)), float(max(turns))
        q1, median, q3 = _quartiles(turns)
        turn_mean = fmean(turns)
        svg = _box_svg(f"turns ({job})", job, low, q1, median, q3, high, turn_mean, max(high, 1.0))
        write("turns", job, svg, "min,q1,median,q3,max,mean", low, q1, median, q3, high, turn_mean)

        rate = result.decision_success_rate
        svg = _bar_svg(f"decision success ({job})", job, rate, None, 1.0, "success rate")
        write("decision", job, svg, "success_rate", rate)

        clock_mean = fmean(result.wall_clock_s) if result.wall_clock_s else 0.0
        clock_scale = max(clock_mean * 1.25, 1.0)
        svg = _bar_svg(f"wall clock ({job})", job, clock_mean, None, clock_scale, "seconds")
        write("clock", job, svg, "mean_s", clock_mean)
    return manifest
