"""Task instance synthesis and line-delimited dataset IO.

Three task kinds share one record schema:

* judgment — a candidate string labeled VALID/INVALID, invalid halves made
  by small verified corruptions of valid code (bounded to a <= 3 token edit);
* goal — start and target world states, code withheld;
* instruction — templated English steps to translate back into code.

Records serialize as JSON Lines with fixed key order; a state's inventory
is an object of counts, ``{"box": 1, "key_2": 3}``.  An optional leading
``{"_config": ...}`` line carries run provenance and the
``dataset_format``; it is skipped on read.  Readers are strict: an unknown
field, a missing required field, a text field that is no string, a
coordinate that is no int or a bad inventory count is a malformed record,
reported with its line number.  In prompts a state reads
``inventory [box, key_2 x3]``.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, replace

from gridlang.ast import (
    ActionStmt,
    ArithExpr,
    ArithOp,
    BinaryArith,
    BinaryBool,
    BoolExpr,
    BoolOp,
    Grab,
    Holding,
    If,
    Literal,
    Loop,
    Move,
    MoveDir,
    Not,
    Program,
    Turn,
    TurnDir,
    canon_serialize,
)
from gridlang.codec import ParseError, Token, TokenKind, parse, tokenize
from gridlang.grammar import (
    GrammarSpec,
    LexiconMode,
    PUNCT_ROLES,
    Style,
    TerminalRole as R,
    render_ebnf,
)
from gridlang.sampler import GenParams, generate_instance
from gridlang.seeding import derive_seed
from gridlang.world import Final, RobotState, START_STATE, exec_program

__all__ = [
    "TaskKind",
    "PerturbCategory",
    "TaskInstance",
    "PerturbationError",
    "MalformedRecordError",
    "perturb",
    "make_judgment_set",
    "make_instance",
    "make_dataset",
    "render_instruction",
    "render_state",
    "write_dataset",
    "read_dataset",
    "read_dataset_config",
    "DATASET_FORMAT",
]

# Version of the record layout written by ``gridlang gen``, kept in the
# config line.  1 (or none recorded): an inventory is a list with one entry
# per copy.  2: an inventory is an object of counts, ``{"key_2": 3}``.
DATASET_FORMAT = 2


class TaskKind(enum.Enum):
    JUDGMENT = "judgment"
    GOAL = "goal"
    INSTRUCTION = "instruction"


class PerturbCategory(enum.Enum):
    DELIMITER_DELETE = "delimiter_delete"
    DELIMITER_SWAP = "delimiter_swap"
    KEYWORD_CORRUPT = "keyword_corrupt"
    ILLEGAL_NESTING = "illegal_nesting"


class PerturbationError(RuntimeError):
    """Every perturbation attempt still parsed (degenerate input)."""


class MalformedRecordError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_FIELDS = (
    "id", "kind", "style", "lexicon_mode", "params", "grammar_text",
    "candidate", "gold_label", "start_state", "target_state",
    "instruction", "gold_code", "gold_ast", "perturb_category",
)

_REQUIRED = {
    TaskKind.JUDGMENT: ("candidate", "gold_label"),
    TaskKind.GOAL: ("start_state", "target_state", "gold_code", "gold_ast"),
    TaskKind.INSTRUCTION: ("instruction", "start_state", "target_state",
                           "gold_code", "gold_ast"),
}
_ALWAYS = _FIELDS[:6]  # id .. grammar_text: in every record
_OPTIONAL = _FIELDS[6:13]  # candidate .. gold_ast: present by task kind
_TEXT_FIELDS = ("id", "grammar_text", "candidate", "instruction",
                "gold_code", "gold_ast")

# record field -> reader of its JSON value; other fields are read as is
_READERS = {
    "kind": TaskKind, "style": Style, "lexicon_mode": LexiconMode,
    "params": GenParams.from_dict, "start_state": RobotState.from_dict,
    "target_state": RobotState.from_dict, "perturb_category": PerturbCategory,
}


@dataclass(frozen=True)
class TaskInstance:
    id: str
    kind: TaskKind
    style: Style
    lexicon_mode: LexiconMode
    params: GenParams
    grammar_text: str
    candidate: str | None = None
    gold_label: str | None = None
    start_state: RobotState | None = None
    target_state: RobotState | None = None
    instruction: str | None = None
    gold_code: str | None = None
    gold_ast: str | None = None
    perturb_category: PerturbCategory | None = None

    def __post_init__(self) -> None:
        for name in _TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        required = _REQUIRED[self.kind]
        for name in _OPTIONAL:
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"{self.kind.value} instance {self.id} "
                                 f"is missing {name}")
            if name not in required and value is not None:
                raise ValueError(f"{self.kind.value} instance {self.id} "
                                 f"must not carry {name}")
        if self.gold_label is not None and self.gold_label not in (
            "VALID", "INVALID"
        ):
            raise ValueError(f"bad gold_label {self.gold_label!r}")
        if self.perturb_category is not None and self.gold_label != "INVALID":
            raise ValueError("perturb_category only applies to INVALID")

    def to_json(self) -> str:
        """One record, its fields in ``_FIELDS`` order, absent ones left
        out."""
        record: dict = {}
        for name in _FIELDS:
            value = getattr(self, name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, (GenParams, RobotState)):
                value = value.to_dict()
            if value is not None:
                record[name] = value
        return json.dumps(record)

    @staticmethod
    def from_json(text: str) -> TaskInstance:
        record = json.loads(text)
        if not isinstance(record, dict):
            raise ValueError("record is not an object")
        extra = set(record) - set(_FIELDS)
        if extra:
            raise ValueError(f"unknown field {sorted(extra)[0]!r}")
        for name in _ALWAYS:
            if name not in record:
                raise ValueError(f"missing field {name!r}")
        return TaskInstance(**{
            name: _READERS[name](value) if name in _READERS else value
            for name, value in record.items()})


# --- perturbation ----------------------------------------------------------

_DELIM_ROLES = (R.LBR, R.RBR, R.END, R.PAR_L, R.PAR_R)
_SWAP = {R.LBR: R.RBR, R.RBR: R.LBR, R.PAR_L: R.PAR_R, R.PAR_R: R.PAR_L}
_CATEGORIES = tuple(PerturbCategory)


def perturb(
    code: str,
    g: GrammarSpec,
    rng: random.Random,
    category: PerturbCategory | None = None,
) -> tuple[str, PerturbCategory]:
    """Corrupt valid code into a near-miss the parser provably rejects.

    The edit touches at most three tokens (every operator here touches one).
    Site and, when not pinned, category are resampled until the parser
    rejects; fifty parsing survivors raise PerturbationError so the caller
    can resample the base program.
    """
    tokens = tokenize(code, g)
    for _ in range(50):
        cat = category
        if cat is None:
            cat = _CATEGORIES[rng.randrange(len(_CATEGORIES))]
        text = _apply_perturbation(cat, code, tokens, g, rng)
        if text is None:
            continue
        try:
            parse(text, g)
        except ParseError:
            return text, cat
    raise PerturbationError(
        f"no rejected {category.value if category else 'any-category'} "
        f"perturbation found in 50 attempts"
    )


def _apply_perturbation(
    cat: PerturbCategory,
    code: str,
    tokens: list[Token],
    g: GrammarSpec,
    rng: random.Random,
) -> str | None:
    if cat is PerturbCategory.DELIMITER_DELETE:
        sites = [t for t in tokens if t.role in _DELIM_ROLES]
        if not sites:
            return None
        site = sites[rng.randrange(len(sites))]
        return code[:site.start] + code[site.end:]
    if cat is PerturbCategory.DELIMITER_SWAP:
        sites = [t for t in tokens if t.role in _SWAP]
        if not sites:
            return None
        site = sites[rng.randrange(len(sites))]
        return _splice(code, site, g.token(_SWAP[site.role]))
    if cat is PerturbCategory.KEYWORD_CORRUPT:
        sites = [t for t in tokens
                 if t.kind is TokenKind.KEYWORD and t.role not in PUNCT_ROLES]
        if not sites:
            return None
        site = sites[rng.randrange(len(sites))]
        return _splice(code, site, _fresh_token(g, rng))
    # illegal nesting: drop a control keyword into expression or
    # condition position
    int_sites = [t for t in tokens if t.kind is TokenKind.INT]
    cond_sites = [t for t in tokens if t.role is R.HOLDING]
    sites = int_sites + cond_sites
    if not sites:
        return None
    site = sites[rng.randrange(len(sites))]
    role = R.LOOP if site.kind is TokenKind.INT else R.IF
    return _splice(code, site, g.token(role))


def _splice(code: str, token: Token, replacement: str) -> str:
    return code[:token.start] + replacement + code[token.end:]


def _fresh_token(g: GrammarSpec, rng: random.Random) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        word = "".join(letters[rng.randrange(26)] for _ in range(5))
        if word not in g.keyword_roles and not word.isdigit():
            return word


# --- dataset builders ------------------------------------------------------


def make_judgment_set(
    n: int, style: Style, mode: LexiconMode, params: GenParams
) -> list[TaskInstance]:
    """n/2 valid and n/2 perturbed instances, labels re-verified by parse.

    Valid and invalid instances alternate; perturbation categories cycle
    uniformly over the invalid half.
    """
    if n <= 0 or n % 2:
        raise ValueError(f"judgment set size must be positive and even, "
                         f"got {n}")
    instances = []
    invalid_index = 0
    for i in range(n):
        seed = derive_seed(params.seed, "judgment", i)
        inst_params = replace(params, seed=seed)
        if i % 2 == 0:
            g, candidate, _tree = generate_instance(style, mode, inst_params)
            parse(candidate, g)  # re-verify the gold label
            label, category = "VALID", None
        else:
            category = _CATEGORIES[invalid_index % len(_CATEGORIES)]
            invalid_index += 1
            g, candidate = _perturbed_candidate(
                style, mode, inst_params, category
            )
            label = "INVALID"
        instances.append(TaskInstance(
            id=f"judgment-{i:05d}",
            kind=TaskKind.JUDGMENT,
            style=style,
            lexicon_mode=mode,
            params=inst_params,
            grammar_text=render_ebnf(g),
            candidate=candidate,
            gold_label=label,
            perturb_category=category,
        ))
    return instances


def _perturbed_candidate(
    style: Style,
    mode: LexiconMode,
    params: GenParams,
    category: PerturbCategory,
) -> tuple[GrammarSpec, str]:
    """The grammar a perturbed candidate was verified against, and the text.

    A degenerate base program (no viable perturbation site) is resampled,
    and with it the grammar, which is drawn from the same seed.
    """
    for retry in range(10):
        retry_params = params if retry == 0 else replace(
            params, seed=derive_seed(params.seed, "retry", retry)
        )
        g, code, _tree = generate_instance(style, mode, retry_params)
        rng = random.Random(derive_seed(retry_params.seed, "perturb"))
        try:
            text, _cat = perturb(code, g, rng, category)
            return g, text
        except PerturbationError:
            continue
    raise PerturbationError(
        f"could not build a {category.value} perturbation near seed "
        f"{params.seed}"
    )


def make_instance(
    kind: TaskKind,
    style: Style,
    mode: LexiconMode,
    params: GenParams,
    identifier: str | None = None,
    start_state: RobotState = START_STATE,
) -> TaskInstance:
    """One goal or instruction instance; the target is the gold final state.

    Only instruction instances carry the program as English steps.  The id
    defaults to the kind's first dataset id.
    """
    g, code, tree = generate_instance(style, mode, params)
    result = exec_program(tree, start_state)
    assert isinstance(result, Final), "generator admitted over-budget gold"
    instruction = None
    if kind is TaskKind.INSTRUCTION:
        instruction = render_instruction(tree)
    return TaskInstance(
        id=identifier or f"{kind.value}-00000",
        kind=kind,
        style=style,
        lexicon_mode=mode,
        params=params,
        grammar_text=render_ebnf(g),
        start_state=start_state,
        target_state=result.state,
        instruction=instruction,
        gold_code=code,
        gold_ast=canon_serialize(tree),
    )


def make_dataset(
    kind: TaskKind,
    n: int,
    style: Style,
    mode: LexiconMode,
    params: GenParams,
    start_state: RobotState = START_STATE,
) -> list[TaskInstance]:
    """Build n instances of one task kind from a global seed."""
    if kind is TaskKind.JUDGMENT:
        return make_judgment_set(n, style, mode, params)
    if n <= 0:
        raise ValueError(f"dataset size must be positive, got {n}")
    instances = []
    for i in range(n):
        inst_params = replace(
            params, seed=derive_seed(params.seed, kind.value, i)
        )
        instances.append(make_instance(
            kind, style, mode, inst_params, f"{kind.value}-{i:05d}",
            start_state,
        ))
    return instances


# --- instruction and state rendering ---------------------------------------


def render_instruction(program: Program) -> str:
    """Template a program as numbered English steps.

    Nested blocks render as bracketed sentence lists; arithmetic uses the
    words plus/times with parentheses around every compound; condition
    rendering parenthesizes each argument of not/and/or, leaving the
    outermost level bare.  Distinct trees yield distinct instructions.
    """
    parts = [
        f"Step {i}: {_instr_stmt(stmt)}"
        for i, stmt in enumerate(program.body, 1)
    ]
    return " ".join(parts)


def _instr_stmt(stmt) -> str:
    if isinstance(stmt, ActionStmt):
        action = stmt.action
        if isinstance(action, Move):
            word = "forward" if action.dir is MoveDir.FORWARD else "backward"
            return f"Move {word} {_instr_arith(action.steps)} steps."
        if isinstance(action, Turn):
            word = "left" if action.dir is TurnDir.LEFT else "right"
            return f"Turn {word}."
        return f"Grab the {action.item.render()}."
    if isinstance(stmt, Loop):
        return (f"Repeat {_instr_arith(stmt.count)} times: "
                f"[ {_instr_block(stmt.body)} ]")
    if isinstance(stmt, If):
        text = (f"If {_instr_cond(stmt.cond)}, then: "
                f"[ {_instr_block(stmt.then)} ]")
        if stmt.orelse is not None:
            text += f" Otherwise: [ {_instr_block(stmt.orelse)} ]"
        return text
    raise TypeError(f"not a statement: {stmt!r}")


def _instr_block(block) -> str:
    return " ".join(_instr_stmt(stmt) for stmt in block)


def _instr_arith(expr: ArithExpr) -> str:
    if isinstance(expr, Literal):
        return str(expr.value)
    word = "plus" if expr.op is ArithOp.ADD else "times"
    return f"({_instr_arith(expr.left)} {word} {_instr_arith(expr.right)})"


def _instr_cond(cond: BoolExpr) -> str:
    if isinstance(cond, Holding):
        return f"holding {cond.item.render()}"
    if isinstance(cond, Not):
        return f"not ({_instr_cond(cond.inner)})"
    word = "and" if cond.op is BoolOp.AND else "or"
    return f"({_instr_cond(cond.left)}) {word} ({_instr_cond(cond.right)})"


def render_state(state: RobotState) -> str:
    """Prompt-facing state text, e.g. ``pos (0, 0), facing N, inventory
    empty`` or ``pos (2, -1), facing W, inventory [box, key_2 x3]``: each
    held kind once, with ``xN`` after it when N > 1 copies are held."""
    if state.inventory:
        items = ", ".join(
            item.render() if n == 1 else f"{item.render()} x{n}"
            for item, n in state.inventory
        )
        inv = f"inventory [{items}]"
    else:
        inv = "inventory empty"
    return f"pos ({state.x}, {state.y}), facing {state.facing.value}, {inv}"


# --- dataset files ----------------------------------------------------------


def write_dataset(
    instances: list[TaskInstance], path, config: dict | None = None
) -> None:
    """One JSON record per line; optional leading provenance line."""
    with open(path, "w", encoding="utf-8") as handle:
        if config is not None:
            handle.write(json.dumps({"_config": config}) + "\n")
        for inst in instances:
            handle.write(inst.to_json() + "\n")


def read_dataset(path) -> list[TaskInstance]:
    """Strict reader; malformed records report their line number.

    A file whose config line names a ``dataset_format`` newer than
    ``DATASET_FORMAT`` is refused; files of any older format, or with no
    config line, read as well (their inventories may be lists).  An id
    used twice is refused, since results and responses are keyed by id.
    """
    instances = []
    first_line: dict[str, int] = {}  # id -> the line that first used it
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            if not line.strip():
                continue
            if line_no == 1:
                header = _config_record(line)
                if header is not None:
                    _check_format(header["_config"])
                    continue
            try:
                inst = TaskInstance.from_json(line)
            except (ValueError, KeyError) as exc:
                raise MalformedRecordError(line_no, str(exc)) from exc
            first = first_line.setdefault(inst.id, line_no)
            if first != line_no:
                raise MalformedRecordError(
                    line_no, f"duplicate id {inst.id!r}, first used on line "
                             f"{first}")
            instances.append(inst)
    return instances


def read_dataset_config(path) -> dict | None:
    """Provenance from the leading config line, if present; files written
    by ``gridlang gen`` record their ``dataset_format`` in it."""
    with open(path, encoding="utf-8") as handle:
        header = _config_record(handle.readline())
    return None if header is None else header["_config"]


def _config_record(line: str) -> dict | None:
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and set(record) == {"_config"}:
        return record
    return None


def _check_format(config) -> None:
    if not isinstance(config, dict) or "dataset_format" not in config:
        return
    found = config["dataset_format"]
    if type(found) is not int or found < 1:
        raise MalformedRecordError(
            1, f"dataset_format must be an int >= 1, got {found!r}")
    if found > DATASET_FORMAT:
        raise MalformedRecordError(
            1, f"dataset format {found} is newer than this reader's "
               f"format {DATASET_FORMAT}")
