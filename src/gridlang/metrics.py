"""Per-instance scoring and the three-layer metric stack.

Each model answer is judged on up to three nested layers: does it parse
(syntax), does it reach the gold final state (behavior), and is it the
same tree as the gold program (semantics).  The layers strictly contain
one another, so every record satisfies semantic => behavioral => parsed;
aggregation re-asserts the containment on raw counts.  An answer that
did not parse, or never arrived, fails every layer its task defines.
A record stores only its verdicts: its failure stage, the first layer
that failed, is derived from them, so the two cannot disagree.

Aggregate rates are percentages with one decimal.  The conditional rates
CBER and CSCR divide by the parsed count and are undefined (rendered
``--``) when nothing parsed.  ``render_report`` and ``render_csv`` take
plain ``(model, task, metrics)`` rows.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Sequence
from dataclasses import dataclass

from gridlang.ast import canon_parse, canon_serialize
from gridlang.codec import ParseError, parse
from gridlang.grammar import GrammarSpec
from gridlang.tasks import TaskInstance, TaskKind
from gridlang.world import Final, exec_program

__all__ = [
    "EvalRecord",
    "Metrics",
    "score_judgment",
    "score_generation",
    "syntax_failure",
    "aggregate",
    "format_rate",
    "render_report",
    "render_csv",
    "render_long_csv",
]

_LABEL_RE = re.compile(r"\b(valid|invalid)\b", re.IGNORECASE)


@dataclass(frozen=True)
class EvalRecord:
    """One scored answer.  None marks a layer the task does not define."""

    instance_id: str
    parsed_ok: bool
    behavioral_ok: bool | None
    semantic_ok: bool | None
    raw_answer: str

    def __post_init__(self) -> None:
        if self.semantic_ok and not self.behavioral_ok:
            raise ValueError(
                f"{self.instance_id}: semantic pass without behavioral pass"
            )
        if self.behavioral_ok and not self.parsed_ok:
            raise ValueError(
                f"{self.instance_id}: behavioral pass without parse"
            )

    @property
    def failure_stage(self) -> str:
        """The first layer that failed, else "pass"."""
        if not self.parsed_ok:
            return "syntax"
        if self.behavioral_ok is False:
            return "behavior"
        if self.semantic_ok is False:
            return "semantics"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "parsed_ok": self.parsed_ok,
            "behavioral_ok": self.behavioral_ok,
            "semantic_ok": self.semantic_ok,
            "failure_stage": self.failure_stage,
            "raw_answer": self.raw_answer,
        }


def score_judgment(answer: str, gold: str, instance_id: str = "") -> EvalRecord:
    """Compare the answer's final VALID/INVALID word against the gold label.

    The last occurrence wins because step-by-step answers tend to restate
    the candidate before concluding.  No extractable label counts as wrong.
    """
    if gold not in ("VALID", "INVALID"):
        raise ValueError(f"bad gold label {gold!r}")
    found = _LABEL_RE.findall(answer)
    correct = bool(found) and found[-1].upper() == gold
    return EvalRecord(
        instance_id=instance_id,
        parsed_ok=correct,
        behavioral_ok=None,
        semantic_ok=None,
        raw_answer=answer,
    )


def score_generation(
    answer_code: str,
    inst: TaskInstance,
    g: GrammarSpec,
    raw_answer: str | None = None,
) -> EvalRecord:
    """Score extracted code through the parse/execute/tree-match layers.

    All failures are scores, never exceptions.  The goal task has no
    semantic layer: any program reaching the target is a full pass there.
    """
    if inst.kind is TaskKind.JUDGMENT:
        raise ValueError("judgment answers are scored by score_judgment")
    raw = answer_code if raw_answer is None else raw_answer
    try:
        tree = parse(answer_code, g)
    except ParseError:
        return syntax_failure(inst, raw)
    result = exec_program(tree, inst.start_state)
    behavioral = isinstance(result, Final) and result.state == inst.target_state
    semantic = None
    if inst.kind is TaskKind.INSTRUCTION:
        # the stored text is canonical, so equal text settles most answers;
        # a parse still accepts an equal tree spelled otherwise
        semantic = (canon_serialize(tree) == inst.gold_ast
                    or tree == canon_parse(inst.gold_ast))
    return EvalRecord(
        instance_id=inst.id,
        parsed_ok=True,
        behavioral_ok=behavioral,
        semantic_ok=semantic,
        raw_answer=raw,
    )


def syntax_failure(inst: TaskInstance, raw: str) -> EvalRecord:
    """The record of an answer that did not parse or never arrived: it
    fails every layer the instance's task defines."""
    return EvalRecord(
        instance_id=inst.id,
        parsed_ok=False,
        behavioral_ok=None if inst.kind is TaskKind.JUDGMENT else False,
        semantic_ok=False if inst.kind is TaskKind.INSTRUCTION else None,
        raw_answer=raw,
    )


@dataclass(frozen=True)
class Metrics:
    """Aggregate rates for one (model, task) cell; None means undefined."""

    n: int
    svr: float
    ber: float | None
    scr: float | None
    cber: float | None
    cscr: float | None


# Metrics' rate fields, in column order
_RATES = ("svr", "ber", "scr", "cber", "cscr")


def _rate(count: int, denom: int) -> float:
    return round(100.0 * count / denom, 1)


def aggregate(records: Sequence[EvalRecord]) -> Metrics:
    """Fold records from one task into the metric hierarchy.

    Mixing records with and without a given layer is a caller bug and is
    rejected, as is an empty record list.
    """
    if not records:
        raise ValueError("no records to aggregate")
    for layer in ("behavioral_ok", "semantic_ok"):
        defined = {getattr(r, layer) is not None for r in records}
        if len(defined) > 1:
            raise ValueError(f"records disagree on whether {layer} applies")
    n = len(records)
    parsed = sum(1 for r in records if r.parsed_ok)
    has_b = records[0].behavioral_ok is not None
    has_s = records[0].semantic_ok is not None
    behavioral = sum(1 for r in records if r.behavioral_ok) if has_b else None
    semantic = sum(1 for r in records if r.semantic_ok) if has_s else None
    # containment on raw counts; per-record construction makes this
    # unbreakable, so a trip here means memory corruption, not bad input
    if behavioral is not None:
        assert behavioral <= parsed, "behavioral count exceeds parsed count"
    if semantic is not None and behavioral is not None:
        assert semantic <= behavioral, "semantic count exceeds behavioral"
    return Metrics(
        n=n,
        svr=_rate(parsed, n),
        ber=_rate(behavioral, n) if has_b else None,
        scr=_rate(semantic, n) if has_s else None,
        cber=_rate(behavioral, parsed) if has_b and parsed else None,
        cscr=_rate(semantic, parsed) if has_s and parsed else None,
    )


def format_rate(value: float | None) -> str:
    return "--" if value is None else f"{value:.1f}"


# each task's report section: (title, the columns its layers define)
_TASK_SECTIONS = {
    TaskKind.JUDGMENT: ("Task 1: grammaticality judgment", ("svr",)),
    TaskKind.GOAL: ("Task 2: goal-conditioned generation",
                    ("svr", "ber", "cber")),
    TaskKind.INSTRUCTION: ("Task 3: instruction-to-code",
                           ("svr", "ber", "scr", "cber", "cscr")),
}


def render_report(rows: Sequence[tuple[str, TaskKind, Metrics]]) -> str:
    """Markdown report of (model, task, metrics) rows: one section per
    task with its applicable columns, rows in their given order."""
    if not rows:
        raise ValueError("no metrics to report")
    lines = ["# Evaluation report"]
    for kind, (title, cols) in _TASK_SECTIONS.items():
        section = [(m, v) for m, k, v in rows if k is kind]
        if not section:
            continue
        lines.append("")
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| model | n | " + " | ".join(c.upper() for c in cols)
                     + " |")
        lines.append("|" + " --- |" * (len(cols) + 2))
        for model, metrics in section:
            cells = [format_rate(getattr(metrics, c)) for c in cols]
            lines.append(f"| {model} | {metrics.n} | " + " | ".join(cells)
                         + " |")
    return "\n".join(lines) + "\n"


def render_csv(rows: Sequence[tuple[str, TaskKind, Metrics]]) -> str:
    """One line per (model, task, metrics) row, in order; inapplicable
    cells hold ``--``."""
    if not rows:
        raise ValueError("no metrics to report")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", "task", "n", *_RATES])
    for model, kind, m in rows:
        writer.writerow([model, kind.value, m.n,
                         *(format_rate(getattr(m, name)) for name in _RATES)])
    return out.getvalue()


def render_long_csv(
    axis: str, entries: Sequence[tuple[object, str, str, Metrics]]
) -> str:
    """Tidy sweep output: one row per defined metric, ready for plotting.

    entries are (axis value, model, task, metrics) in sweep order.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["axis", "value", "model", "task", "metric",
                     "percentage"])
    for value, model, task, m in entries:
        for name in _RATES:
            rate = getattr(m, name)
            if rate is None:
                continue
            writer.writerow([axis, value, model, task, name, f"{rate:.1f}"])
    return out.getvalue()
