"""Seeded noisy answers for the ``score`` phase, and the known-defect probes.

Every synthesised answer records the failure stage it is built to reach, so
the benchmark can check ``gridlang score`` verdict by verdict.  The answers
are built with gridlang's public parser, linearizer and perturber; only the
expected stages are the benchmark's own reasoning.
"""

from __future__ import annotations

import dataclasses
import json
import random

from gridlang.ast import (
    ActionStmt,
    BinaryArith,
    Literal,
    Loop,
    Program,
    Turn,
    TurnDir,
)
from gridlang.codec import linearize, parse
from gridlang.grammar import LexiconMode, Style, TerminalRole as R
from gridlang.grammar import grammar_from_text
from gridlang.tasks import PerturbationError, perturb
from gridlang.world import eval_arith

# answer shape -> its share of a responses file, out of 20
JUDGMENT_SHAPES = {
    "bare_label": 8,      # the gold label alone
    "prose_label": 6,     # reasoning prose ending in the gold label
    "wrong_label": 4,     # the other label
    "no_label": 2,        # prose that never names a label
}
CODE_SHAPES = {
    "instruction": {
        "fenced": 6,          # prose, then gold in a fenced block
        "prose_unfenced": 4,  # prose ending in ':' then bare gold
        "bare": 3,            # gold alone: extract_code's whole-text path
        "perturbed": 4,       # fenced perturb(gold): a syntax failure
        "flattened": 3,       # arithmetic folded to literals
    },
    "goal": {
        "fenced": 8,
        "prose_unfenced": 5,
        "bare": 3,
        "perturbed": 4,
    },
}
# an over-budget answer appends a 5**9-turn loop nest to gold: it runs past
# the 1M-step budget and must fail at the behaviour layer
OVER_BUDGET_NEST = 9

_PROSE = (
    "Reading the grammar first, each statement is checked in turn.",
    "The productions are applied from the start symbol down.",
    "Matching the tokens against the rules one at a time.",
)


def has_compound_arith(gold_ast: str) -> bool:
    """True when the canonical tree holds an add or mul node."""
    return "(add " in gold_ast or "(mul " in gold_ast


def expected_eval_stage(record: dict, mock: str) -> str:
    """Stage a mock endpoint's answer must reach for one dataset record."""
    if mock == "flatten" and record["kind"] == "instruction" \
            and has_compound_arith(record["gold_ast"]):
        return "semantics"
    return "pass"


def grammar_of(record: dict):
    return grammar_from_text(Style(record["style"]),
                             LexiconMode(record["lexicon_mode"]),
                             record["grammar_text"])


def _allocate(weights: dict[str, int], n: int, rng: random.Random) -> list:
    """Exactly proportional shape counts (largest remainder), shuffled."""
    total = sum(weights.values())
    exact = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    by_remainder = sorted(weights, key=lambda k: exact[k] - counts[k],
                          reverse=True)
    for k in by_remainder[:n - sum(counts.values())]:
        counts[k] += 1
    shapes = [k for k in weights for _ in range(counts[k])]
    rng.shuffle(shapes)
    return shapes


def _flatten(node):
    """Fold every compound arithmetic expression to its literal value."""
    if isinstance(node, BinaryArith):
        return Literal(eval_arith(node))
    if isinstance(node, tuple):
        return tuple(_flatten(item) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {f.name: _flatten(getattr(node, f.name))
                   for f in dataclasses.fields(node)}
        return dataclasses.replace(node, **changes)
    return node


def _over_budget(tree: Program) -> Program:
    nest = ActionStmt(Turn(TurnDir.LEFT))
    for _ in range(OVER_BUDGET_NEST):
        nest = Loop(Literal(5), (nest,))
    return Program(tree.body + (nest,))


def _fenced(rng: random.Random, code: str) -> str:
    return f"{rng.choice(_PROSE)}\n```\n{code}\n```"


def _judgment_answer(shape: str, gold: str, rng: random.Random):
    other = "INVALID" if gold == "VALID" else "VALID"
    if shape == "bare_label":
        return gold, "pass"
    if shape == "prose_label":
        return f"{rng.choice(_PROSE)}\nFinal answer: {gold}", "pass"
    if shape == "wrong_label":
        return other, "syntax"
    return f"{rng.choice(_PROSE)}\nI cannot decide.", "syntax"


def _code_answer(shape: str, record: dict, rng: random.Random):
    g = grammar_of(record)
    gold = record["gold_code"]
    if shape == "perturbed":
        try:
            text, _category = perturb(gold, g, rng)
            return _fenced(rng, text), "syntax"
        except PerturbationError:
            shape = "fenced"
    if shape == "fenced":
        return _fenced(rng, gold), "pass"
    if shape == "prose_unfenced":
        return f"{rng.choice(_PROSE)} Here is the program:\n{gold}", "pass"
    if shape == "bare":
        return gold, "pass"
    if shape == "flattened":
        flat = linearize(_flatten(parse(gold, g)), g)
        return _fenced(rng, flat), expected_eval_stage(record, "flatten")
    if shape == "over_budget":
        return _fenced(rng, linearize(_over_budget(parse(gold, g)), g)), \
            "behavior"
    raise ValueError(f"unknown answer shape {shape!r}")


def synthesise(records: list[dict], seed: int,
               over_budget: int = 0) -> list[dict]:
    """One noisy answer per record: instance_id, response, shape, stage.

    ``over_budget`` code answers, at seeded positions, take the
    over-budget shape in place of their drawn one.
    """
    rng = random.Random(seed)
    kind = records[0]["kind"]
    rows = []
    if kind == "judgment":
        shapes = _allocate(JUDGMENT_SHAPES, len(records), rng)
        for record, shape in zip(records, shapes):
            answer, stage = _judgment_answer(shape, record["gold_label"], rng)
            rows.append({"instance_id": record["id"], "response": answer,
                         "shape": shape, "stage": stage})
        return rows
    shapes = _allocate(CODE_SHAPES[kind], len(records), rng)
    for index in rng.sample(range(len(records)), over_budget):
        shapes[index] = "over_budget"
    for record, shape in zip(records, shapes):
        answer, stage = _code_answer(shape, record, rng)
        rows.append({"instance_id": record["id"], "response": answer,
                     "shape": shape, "stage": stage})
    return rows


def write_responses(rows: list[dict], path) -> None:
    """The captured-responses file ``gridlang score`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps({"instance_id": row["instance_id"],
                                     "response": row["response"]}) + "\n")


# --- known-defect probes ------------------------------------------------------


def probe_answers(record: dict) -> dict[str, str]:
    """C-style answers that each trip one scoring defect in ROADMAP item 2.

    Built as text, not trees, so that no recursion limit applies here.
    """
    g = grammar_of(record)
    if g.style is not Style.C:
        raise ValueError("probes need a C-style grammar (empty blocks)")
    t = g.token
    depth = 3000
    nested = (f"{t(R.PAR_L)} " * depth + "1"
              + f" {t(R.OP_ADD)} 1 {t(R.PAR_R)}" * depth)
    big_loop = f"{t(R.LOOP)} {t(R.PAR_L)} {10 ** 12} {t(R.PAR_R)}"
    taken_empty = (f"{t(R.IF)} {t(R.PAR_L)} {t(R.NOT)} {t(R.PAR_L)} "
                   f"{t(R.HOLDING)} key {t(R.PAR_R)} {t(R.PAR_R)} "
                   f"{t(R.LBR)} {t(R.RBR)}")
    return {
        # 2b: deep arithmetic raises RecursionError out of score_instance
        "recursion_3000": f"{t(R.MOVE)} {t(R.DIR_FWD)} {nested} {t(R.SEMI)}",
        # 2c: loops whose bodies take no steps escape the step budget
        "empty_loop_1e12": f"{big_loop} {t(R.LBR)} {t(R.RBR)}",
        "empty_if_loop_1e12":
            f"{big_loop} {t(R.LBR)} {taken_empty} {t(R.RBR)}",
    }
