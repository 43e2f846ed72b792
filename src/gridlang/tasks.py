"""Task instance synthesis and gridlang's JSON Lines files.

Three task kinds share one record schema:

* judgment — a candidate string labeled VALID/INVALID, invalid halves made
  by small verified corruptions of valid code (one word deleted or
  replaced);
* goal — start and target world states, code withheld;
* instruction — templated English steps to translate back into code.

``make_instance`` builds instance i of any kind from the five dials its
record stores, and ``make_dataset`` makes one such call per index.
Records serialize with fixed key order; a state's inventory is an object
of counts, ``{"box": 1, "key_2": 3}``, and reads ``inventory [box, key_2
x3]`` in prompts.

Datasets, results and responses are written by ``write_jsonl`` and read
by ``read_jsonl``: an optional ``{"_config": ...}`` provenance line on
line 1 (a dataset's records its ``dataset_format``), then one JSON object
per line.  Invalid JSON, a line that is no object, a late provenance line
and a repeated id are refused in the same words in every file, with the
line number; so is a malformed dataset record (an unknown or missing
field, a text field that is no string, a coordinate that is no int, a bad
inventory count).
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
from gridlang.codec import ParseError, parse, tokenize
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
    "make_instance",
    "make_dataset",
    "render_instruction",
    "render_state",
    "write_dataset",
    "read_dataset",
    "read_jsonl",
    "check_utf8",
    "write_jsonl",
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
# field -> the type of its value; gold_label is checked against its two
# values instead
_TYPES = {
    "id": str, "kind": TaskKind, "style": Style, "lexicon_mode": LexiconMode,
    "params": GenParams, "grammar_text": str, "candidate": str,
    "start_state": RobotState, "target_state": RobotState,
    "instruction": str, "gold_code": str, "gold_ast": str,
    "perturb_category": PerturbCategory,
}

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
        for name, expected in _TYPES.items():  # _ALWAYS ones are never None
            value = getattr(self, name)
            if not isinstance(value, expected) and (value is not None
                                                    or name in _ALWAYS):
                what = "string" if expected is str else expected.__name__
                raise ValueError(f"{name} must be a {what}, got {value!r}")
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
    def from_dict(record: dict) -> TaskInstance:
        """The instance a decoded record holds; ``ValueError`` or
        ``KeyError`` names what is malformed."""
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

_SWAP = {R.LBR: R.RBR, R.RBR: R.LBR, R.PAR_L: R.PAR_R, R.PAR_R: R.PAR_L}
_CATEGORIES = tuple(PerturbCategory)

# The symbols of the words each category edits, in groups: a category's
# sites are the words of its first group in text order, then its next.
_SITE_SYMBOLS = {
    PerturbCategory.DELIMITER_DELETE: (
        frozenset({R.LBR, R.RBR, R.END, R.PAR_L, R.PAR_R}),),
    PerturbCategory.DELIMITER_SWAP: (frozenset(_SWAP),),
    PerturbCategory.KEYWORD_CORRUPT: (frozenset(R).difference(PUNCT_ROLES),),
    # a control keyword dropped into expression or condition position
    PerturbCategory.ILLEGAL_NESTING: (frozenset({"INT"}),
                                      frozenset({R.HOLDING})),
}


def perturb(
    code: str,
    g: GrammarSpec,
    rng: random.Random,
    category: PerturbCategory | None = None,
) -> tuple[str, PerturbCategory]:
    """Corrupt valid code into a near-miss the parser provably rejects.

    Each edit deletes or replaces one word, as ``parse`` splits the code
    (``codec.tokenize``): a delimiter, a keyword, a count or a condition.
    Site and, when not pinned, category are resampled until the parser
    rejects; fifty parsing survivors raise PerturbationError so the caller
    can resample the base program.
    """
    words, syms, starts = tokenize(code, g)
    sites: dict[PerturbCategory, list[int]] = {}  # found once per category
    for _ in range(50):
        cat = category
        if cat is None:
            cat = _CATEGORIES[rng.randrange(len(_CATEGORIES))]
        found = sites.get(cat)
        if found is None:
            found = sites[cat] = [k for group in _SITE_SYMBOLS[cat]
                                  for k, sym in enumerate(syms) if sym in group]
        if not found:
            continue
        k = found[rng.randrange(len(found))]
        text = (code[:starts[k]] + _replacement(cat, syms[k], g, rng)
                + code[starts[k] + len(words[k]):])
        try:
            parse(text, g)
        except ParseError:
            return text, cat
    raise PerturbationError(
        f"no rejected {category.value if category else 'any-category'} "
        f"perturbation found in 50 attempts"
    )


def _replacement(cat: PerturbCategory, sym, g: GrammarSpec,
                 rng: random.Random) -> str:
    """The text that takes the place of a site word bound to ``sym``."""
    if cat is PerturbCategory.DELIMITER_DELETE:
        return ""
    if cat is PerturbCategory.DELIMITER_SWAP:
        return g.token(_SWAP[sym])
    if cat is PerturbCategory.KEYWORD_CORRUPT:
        return _fresh_token(g, rng)
    return g.token(R.IF if sym is R.HOLDING else R.LOOP)


def _fresh_token(g: GrammarSpec, rng: random.Random) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        word = "".join(letters[rng.randrange(26)] for _ in range(5))
        if word not in g.keyword_roles:
            return word


# --- dataset builders ------------------------------------------------------


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
    i: int = 0,
) -> TaskInstance:
    """Instance ``i`` of a ``kind`` set, drawn from its own ``params``.

    The id is the set's i-th.  A goal or instruction instance starts at
    ``START_STATE`` and targets the gold final state; only instruction
    instances carry the program as English steps.  A judgment instance is
    valid for even i, its label re-verified by parse, and perturbed for odd
    i, the categories cycling uniformly.
    """
    if kind is TaskKind.JUDGMENT:
        if i % 2 == 0:
            g, candidate, _tree = generate_instance(style, mode, params)
            parse(candidate, g)  # re-verify the gold label
            fields = {"candidate": candidate, "gold_label": "VALID"}
        else:
            category = _CATEGORIES[(i // 2) % len(_CATEGORIES)]
            g, candidate = _perturbed_candidate(style, mode, params, category)
            fields = {"candidate": candidate, "gold_label": "INVALID",
                      "perturb_category": category}
    else:
        g, code, tree = generate_instance(style, mode, params)
        result = exec_program(tree, START_STATE)
        assert isinstance(result, Final), "generator admitted over-budget gold"
        fields = {"start_state": START_STATE, "target_state": result.state,
                  "gold_code": code, "gold_ast": canon_serialize(tree)}
        if kind is TaskKind.INSTRUCTION:
            fields["instruction"] = render_instruction(tree)
    return TaskInstance(id=f"{kind.value}-{i:05d}", kind=kind, style=style,
                        lexicon_mode=mode, params=params,
                        grammar_text=render_ebnf(g), **fields)


def make_dataset(
    kind: TaskKind,
    n: int,
    style: Style,
    mode: LexiconMode,
    params: GenParams,
) -> list[TaskInstance]:
    """Build n instances of one task kind from a global seed: instance i is
    ``make_instance`` of i with the seed ``derive_seed(params.seed,
    kind.value, i)``, so a judgment set alternates valid and perturbed
    candidates."""
    if kind is TaskKind.JUDGMENT and (n <= 0 or n % 2):
        raise ValueError(f"judgment set size must be positive and even, "
                         f"got {n}")
    if n <= 0:
        raise ValueError(f"dataset size must be positive, got {n}")
    seeds = (derive_seed(params.seed, kind.value, i) for i in range(n))
    return [make_instance(kind, style, mode, replace(params, seed=seed), i)
            for i, seed in enumerate(seeds)]


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
        return f"Grab the {action.item}."
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
        return f"holding {cond.item}"
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
            item if n == 1 else f"{item} x{n}"
            for item, n in state.inventory
        )
        inv = f"inventory [{items}]"
    else:
        inv = "inventory empty"
    return f"pos ({state.x}, {state.y}), facing {state.facing.value}, {inv}"


# --- dataset files ----------------------------------------------------------


def write_jsonl(path, config: dict | None, lines) -> None:
    """A provenance line when ``config`` is given, then each of ``lines``
    (one JSON text each) on a line of its own."""
    with open(path, "w", encoding="utf-8") as handle:
        if config is not None:
            handle.write(json.dumps({"_config": config}) + "\n")
        handle.writelines(line + "\n" for line in lines)


def check_utf8(line: str) -> None:
    """Refuse a line, read with ``errors="surrogateescape"``, that holds a
    byte UTF-8 could not decode: that error handler keeps each such byte
    as a lone surrogate, which decoded text never holds."""
    if not line.isascii():
        try:
            line.encode()
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"not UTF-8 text: byte {ord(line[exc.start]) - 0xDC00:#04x} "
                f"at column {exc.start + 1}") from None


def read_jsonl(path, id_field: str):
    """Read a JSON Lines file written by ``write_jsonl``, one line at a time.

    The first value yielded is the provenance of a ``{"_config": ...}``
    line on physical line 1, else None; then comes ``(line_no, row)`` for
    every other non-blank line, each decoded once.  A line that is not a
    JSON object or holds bytes that are not UTF-8, a provenance line
    anywhere below line 1, and a row whose string ``id_field`` an earlier
    row used, raise MalformedRecordError.
    """
    first_line: dict[str, int] = {}  # id -> the line that first used it
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, 1):
            if not line.strip():
                if line_no == 1:
                    yield None
                continue
            try:
                check_utf8(line)
            except ValueError as exc:
                raise MalformedRecordError(line_no, str(exc)) from None
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(
                    line_no, f"invalid JSON: {exc.msg} at column "
                             f"{exc.colno}") from None
            if not isinstance(row, dict):
                raise MalformedRecordError(line_no, "not a JSON object")
            if len(row) == 1 and "_config" in row:
                if line_no > 1:
                    raise MalformedRecordError(
                        line_no, "a _config line must be the first line")
                yield row["_config"]
                continue
            if line_no == 1:
                yield None
            key = row.get(id_field)
            if isinstance(key, str):
                first = first_line.setdefault(key, line_no)
                if first != line_no:
                    raise MalformedRecordError(
                        line_no, f"duplicate {id_field} {key!r}, first used "
                                 f"on line {first}")
            yield line_no, row


def write_dataset(
    instances: list[TaskInstance], path, config: dict | None = None
) -> None:
    """One JSON record per line; optional leading provenance line."""
    write_jsonl(path, config, (inst.to_json() for inst in instances))


def read_dataset(path) -> list[TaskInstance]:
    """Strict reader; malformed records report their line number.

    A file whose config line names a ``dataset_format`` newer than
    ``DATASET_FORMAT`` is refused; files of any older format, or with no
    config line, read as well (their inventories may be lists).  An id
    used twice is refused, since results and responses are keyed by id.
    """
    rows = read_jsonl(path, "id")
    _check_format(next(rows, None))
    instances = []
    for line_no, row in rows:
        try:
            instances.append(TaskInstance.from_dict(row))
        except (ValueError, KeyError) as exc:
            raise MalformedRecordError(line_no, str(exc)) from exc
    return instances


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
