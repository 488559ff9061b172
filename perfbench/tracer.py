"""In-memory span tracer that wraps the engine's public entry points.

Spans are recorded from the benchmark's side only: `install` replaces each
traced name where its caller looks it up (several modules import by name,
for example `runner.build_panel`, `runner.serialize_record` and
`evaluation.meteor_lite`; `decisions` calls its own globals), and `undo`
puts the originals back. Spans stay in memory until `dump` writes them once.
A span's parent is the innermost open span on the same thread; calls also
carry their debate's ``[item ...]`` marker, so they can be attributed to a
debate whichever thread makes them.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import threading
import time
from typing import Any, Callable, Optional

_MARKER_RE = re.compile(r"\[item ([A-Za-z0-9_.-]+)\]")


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "ok", "info")

    def __init__(self, id, parent, name, thread, start, end, ok, info):
        self.id = id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.ok = ok
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, result) if info is not None else None
                tracer.spans.append(
                    Span(span_id, parent, name, threading.get_ident(), start, end, ok, extra)
                )

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: Any, attr: str, name: str, info: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def patch_count(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.count(name, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        rows = [
            [s.id, s.parent, s.name, s.thread, round(s.start, 7), round(s.end, 7), s.ok, s.info]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(Span.__slots__), "spans": rows, "counts": self.counts}, handle)


def marker_of(text: str) -> Optional[str]:
    match = _MARKER_RE.search(text)
    return match.group(1) if match else None


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the agora modules."""
    import requests

    from agora import (
        agents,
        charts,
        config,
        datasets,
        decisions,
        evaluation,
        gateway,
        metrics,
        paradigms,
        prompts,
        runner,
    )

    def request_marker(args, result):
        return marker_of("".join(m.content for m in args[1].messages))

    def sample_marker(args, result):
        return marker_of(args[1].instruction_key)

    def service_seconds(args, result):
        if result is None:
            return None
        return float(result.headers.get("X-Service-Seconds", "0"))

    def ballots(args, result):
        if result is None:
            return None
        return [sum(1 for b in result.ballots if b.valid), len(result.ballots)]

    p = tracer.patch
    p(config, "expand_config", "config.expand")
    p(datasets, "load_input_file", "datasets.load")
    p(runner, "run_sample", "runner.run_sample", sample_marker)
    p(runner, "serialize_record", "runner.serialize")
    p(runner, "build_panel", "agents.panel")
    p(agents, "generate_expert_persona", "agents.persona")
    p(agents, "generate_ipip_persona", "agents.persona")
    p(paradigms, "run_turn", "paradigms.turn")
    for attr in sorted(vars(prompts)):
        if attr.startswith("render_") or attr == "cot_user_text":
            p(prompts, attr, "prompts.render")
    p(decisions, "decide", "decisions.decide")
    p(decisions, "run_vote_round", "decisions.vote_round", ballots)
    p(decisions, "collect_candidates", "decisions.collect")
    p(decisions, "judge_decide", "decisions.judge")
    p(decisions, "extract_final_answer_response", "decisions.extraction")
    p(gateway.HttpGateway, "complete", "gateway.complete", request_marker)
    p(requests, "post", "gateway.transport", service_seconds)
    p(evaluation, "evaluate_logs", "evaluation.evaluate")
    p(evaluation, "group_log_files", "evaluation.group")
    p(evaluation, "read_records", "evaluation.read")
    p(evaluation, "evaluate_job", "evaluation.score")
    p(evaluation, "bleu", "metrics.bleu")
    p(evaluation, "rouge", "metrics.rouge")
    p(evaluation, "meteor_lite", "metrics.meteor")
    tracer.patch_count(metrics, "tokenize", "metrics.tokenize")
    p(charts, "emit_charts", "charts.emit")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def call_stages(intervals: list[tuple[float, float]]) -> int:
    """Number of stages: calls that overlap in time count as one."""
    stages = 0
    stage_end = float("-inf")
    for start, end in sorted(intervals):
        if start >= stage_end:
            stages += 1
            stage_end = end
        else:
            stage_end = max(stage_end, end)
    return stages


def layer_metrics(tracer: Tracer, records_scored: int) -> dict[str, float]:
    """Per-layer figures computed from one traced pass's spans and counts."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def self_total(prefix: str) -> float:
        return sum(self_time(s, children.get(s.id, [])) for s in spans if s.name.startswith(prefix))

    def under(span: Span, name: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    completes = named("gateway.complete")
    transports = named("gateway.transport")
    persona_spans = named("agents.persona")
    persona_calls = sum(1 for c in completes if under(c, "agents.persona"))
    vote_rounds = named("decisions.vote_round")
    valid = sum(s.info[0] for s in vote_rounds if s.info)
    cast = sum(s.info[1] for s in vote_rounds if s.info)
    ballot_calls = sum(
        1 for c in completes if by_id.get(c.parent) is not None and by_id[c.parent].name == "decisions.vote_round"
    )
    tie_rounds = sum(
        max(0, sum(1 for c in children.get(d.id, []) if c.name == "decisions.vote_round") - 1)
        for d in named("decisions.decide")
    )
    per_debate: dict[str, list[tuple[float, float]]] = {}
    for c in completes:
        if c.info:
            per_debate.setdefault(c.info, []).append((c.start, c.end))
    stages = [call_stages(v) for v in per_debate.values()]
    prompt_spans = [
        s for s in named("prompts.render")
        if by_id.get(s.parent) is None or by_id[s.parent].name != "prompts.render"
    ]
    transport_s = sum(t.duration for t in transports)
    backend_s = sum(t.info or 0.0 for t in transports)
    slot_wait = sum(
        c.duration - sum(t.duration for t in children.get(c.id, []) if t.name == "gateway.transport")
        for c in completes
    )
    overhead_ms = 1000.0 * (transport_s - backend_s) / len(transports) if transports else 0.0
    services = sorted(t.info for t in transports if t.info)
    service_median_ms = 1000.0 * services[len(services) // 2] if services else 0.0
    return {
        "config.expand_s": total("config.expand"),
        "datasets.load_s": total("datasets.load"),
        "runner.serialize_s": total("runner.serialize"),
        "agents.panel_s": total("agents.panel"),
        "agents.persona_calls": persona_calls,
        "agents.persona_useful_ratio": (
            sum(1 for s in persona_spans if s.ok) / persona_calls if persona_calls else 1.0
        ),
        "paradigms.turn_self_s": self_total("paradigms.turn"),
        "paradigms.turns": len(named("paradigms.turn")),
        "prompts.render_s": sum(s.duration for s in prompt_spans),
        "prompts.render_calls": len(prompt_spans),
        "decisions.decide_self_s": self_total("decisions."),
        "decisions.vote_rounds": len(vote_rounds),
        "decisions.tie_rounds": tie_rounds,
        "decisions.extraction_calls": len(named("decisions.extraction")),
        "decisions.ballot_calls": ballot_calls,
        "decisions.ballot_valid_ratio": valid / cast if cast else 1.0,
        "decisions.critical_path_calls": sum(stages) / len(stages) if stages else 0.0,
        "gateway.calls": sum(1 for c in completes if c.ok),
        "gateway.retries": max(0, len(transports) - len(completes)),
        "gateway.failed": sum(1 for c in completes if not c.ok),
        "gateway.slot_wait_s": slot_wait,
        "gateway.transport_s": transport_s,
        "gateway.backend_s": backend_s,
        "gateway.overhead_ms_per_call": overhead_ms,
        "gateway.service_to_overhead": service_median_ms / overhead_ms if overhead_ms > 0 else 0.0,
        "evaluation.read_s": total("evaluation.read"),
        "evaluation.score_self_s": self_total("evaluation.score"),
        "evaluation.write_s": self_total("evaluation.evaluate"),
        "metrics.bleu_s": total("metrics.bleu"),
        "metrics.rouge_s": total("metrics.rouge"),
        "metrics.meteor_s": total("metrics.meteor"),
        "metrics.tokenize_calls_per_record": (
            tracer.counts.get("metrics.tokenize", 0) / records_scored if records_scored else 0.0
        ),
        "charts.emit_s": total("charts.emit"),
    }
