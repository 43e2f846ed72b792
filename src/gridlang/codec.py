"""Surface codec: linearize ASTs to styled text and parse text back.

Both directions are compiled from ``grammar.RULE_TABLES``, read from the
lines ``render_ebnf`` prints, so the language parsed is the EBNF shown.

Tokenization is whitespace-insensitive: word characters clump, every other
non-space character stands alone, so ``repeat(3+4)iters`` and
``repeat ( 3 + 4 ) iters`` tokenize identically.  A word is the terminal the
grammar binds it to, else a literal of the first class (``INT``, ``ITEM``)
whose pattern it matches in full.

The parser tries a rule's alternatives in order; every style is LL(2), so
work stays linear.  A rejection reports the furthest token reached.  Text
nested deeper than ``MAX_NESTING`` brackets is rejected at the first token
past that depth before parsing, so recursion stays far from Python's limit.

Layout rule: single spaces between tokens, except none after ``PAR_L`` or
before ``PAR_R``/``SEMI``; each statement of a ``stmt+``/``stmt*`` block on
its own line, two spaces deeper than the statement holding the block (top
level at column 0); the token after a block on a new line at the outer
indent.
"""

from __future__ import annotations

import enum
import re
from dataclasses import fields
from operator import attrgetter
from typing import Callable, NamedTuple

from gridlang.ast import (
    MAX_NESTING,
    ActionStmt,
    ArithOp,
    BinaryArith,
    BinaryBool,
    BoolOp,
    Grab,
    Holding,
    If,
    ItemToken,
    Literal,
    Loop,
    Move,
    MoveDir,
    Not,
    Program,
    Turn,
    TurnDir,
)
from gridlang.grammar import (
    RULE_TABLES,
    GrammarSpec,
    RuleTable,
    Symbol,
    TerminalRole as R,
    used_roles,
)

__all__ = [
    "TokenKind",
    "Token",
    "tokenize",
    "ParseError",
    "parse",
    "linearize",
]

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|\S")
_PUNCT_CHARS = frozenset("[]{}();")
_NESTING_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}

# Each AST class: (rule, alternative index, the symbols that carry its
# fields, in field order).  Repeated symbols pair up in order of appearance.
_NODES: dict[type, tuple[str, int, tuple[str, ...]]] = {
    Program: ("start", 0, ("stmt",)),
    ActionStmt: ("action_stmt", 0, ("action",)),
    Loop: ("loop", 0, ("expr", "stmt")),
    If: ("if_stmt", 0, ("cond", "stmt", "stmt")),
    Move: ("action", 0, ("MOVE_DIR", "expr")),
    Turn: ("action", 1, ("TURN_DIR",)),
    Grab: ("action", 2, ("ITEM",)),
    Literal: ("expr", 0, ("INT",)),
    BinaryArith: ("expr", 1, ("op_arith", "expr", "expr")),
    Holding: ("cond", 0, ("ITEM",)),
    Not: ("cond", 1, ("cond",)),
    BinaryBool: ("cond", 2, ("op_bool", "cond", "cond")),
}
_BY_ALT = {(rule, k): cls for cls, (rule, k, _) in _NODES.items()}

# Terminals that stand for a value rather than only spelling structure.
_LEAVES: dict[R, enum.Enum] = {
    R.DIR_FWD: MoveDir.FORWARD,
    R.DIR_BWD: MoveDir.BACKWARD,
    R.DIR_LEFT: TurnDir.LEFT,
    R.DIR_RIGHT: TurnDir.RIGHT,
    R.OP_ADD: ArithOp.ADD,
    R.OP_MUL: ArithOp.MUL,
    R.AND: BoolOp.AND,
    R.OR: BoolOp.OR,
}

# Literal classes: (text -> value, value -> text).
_LITERALS = {"INT": (int, str), "ITEM": (ItemToken.parse, ItemToken.render)}


def _move(dir: MoveDir, steps) -> Move:
    """``MOVE MOVE_DIR expr?`` without the count moves one step."""
    if steps is None:
        return Move(dir, Literal(1), steps_omitted=True)
    return Move(dir, steps)


_MAKERS = {Move: _move}
_GETTERS = {(Move, "steps"): lambda m: None if m.steps_omitted else m.steps}


# --- tokens ------------------------------------------------------------------


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    INT = "int"
    ITEM = "item"
    PUNCT = "punct"
    UNKNOWN = "unknown"


class Token(NamedTuple):
    text: str
    kind: TokenKind
    role: R | None
    start: int
    end: int


def _classifier(g: GrammarSpec) -> Callable[[str], R | str | None]:
    """Word -> the role bound to it, else its literal class, else None."""
    roles = g.keyword_roles.get
    classes = [(name, pattern.fullmatch)
               for name, pattern in RULE_TABLES[g.style].classes.items()]

    def classify(word: str) -> R | str | None:
        sym = roles(word)
        if sym is None:
            for name, match in classes:
                if match(word):
                    return name
        return sym

    return classify


def tokenize(text: str, g: GrammarSpec) -> list[Token]:
    """Split into classified tokens; never fails, unknown text is a kind."""
    classify = _classifier(g)
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word = m.group()
        sym = classify(word)
        role = sym if isinstance(sym, R) else None
        if word in _PUNCT_CHARS:
            kind = TokenKind.PUNCT
        elif role is not None:
            kind = TokenKind.KEYWORD
        else:  # a literal class name is its token kind
            kind = TokenKind((sym or "unknown").lower())
        tokens.append(Token(word, kind, role, m.start(), m.end()))
    return tokens


# --- parsing -----------------------------------------------------------------


class ParseError(ValueError):
    """Rejection with position (token index), expectation, and found text."""

    def __init__(self, position: int, expected: str, found: str) -> None:
        super().__init__(
            f"at token {position}: expected {expected}, found {found}"
        )
        self.position = position
        self.expected = expected
        self.found = found


# A compiled alternative is (items, width, make): ``items`` are (is_rule,
# ref, quant, slot, convert), ``width`` counts the value slots and ``make``
# builds the node from them (None passes slot 0 on).  A terminal that fills
# a slot puts ``convert(word)`` there.


def parse(code: str, g: GrammarSpec) -> Program:
    """Parse styled code under grammar ``g``; raises ParseError to reject.

    The whole token stream must be consumed: trailing tokens reject.
    """
    words = _TOKEN_RE.findall(code)
    if words.count("(") + words.count("[") + words.count("{") > MAX_NESTING:
        depth = 0
        for position, word in enumerate(words):
            depth += _NESTING_STEP.get(word, 0)
            if depth > MAX_NESTING:
                raise ParseError(position, f"at most {MAX_NESTING} nested "
                                 "brackets", repr(word))
    rules, n = _RULES[g.style], len(words)
    syms = list(map(_classifier(g), words))
    far, want = 0, "statement"  # furthest token a terminal failed at

    def rule(name: str, i: int):
        """(value, next position), or None when no alternative matches."""
        nonlocal far, want
        for items, width, make in rules[name]:
            values = [None] * width
            j = i
            for is_rule, ref, quant, slot, convert in items:
                if is_rule:
                    result = rule(ref, j)
                    if quant == "*" or quant == "+":
                        block = []
                        while result is not None:
                            block.append(result[0])
                            j = result[1]
                            result = rule(ref, j)
                        if block or quant == "*":
                            result = tuple(block), j
                    if result is not None:
                        values[slot], j = result
                    elif quant != "?":
                        break
                elif j < n and syms[j] == ref:
                    if slot is not None:
                        try:
                            values[slot] = convert(words[j])
                        except ValueError:  # e.g. past int()'s digit limit
                            raise ParseError(j, ref, repr(words[j])) from None
                    j += 1
                elif not quant:
                    if j >= far:
                        far, want = j, ref
                    break
            else:
                return (values[0] if make is None else make(*values)), j
        return None

    result = rule("start", 0)
    if result is not None:
        if result[1] == n:
            return result[0]
        if result[1] >= far:
            far, want = result[1], "end of input"
    found = repr(words[far]) if far < n else "end of input"
    raise ParseError(far, repr(g.token(want)) if isinstance(want, R) else want,
                     found)


def _group(table: RuleTable, sym: Symbol) -> tuple[Symbol, ...] | None:
    """The one alternative of a rule that builds no node, such as a
    parenthesized group: it stands for the one value it carries."""
    if sym.kind == "rule" and len(table.rules[sym.ref]) == 1 and \
            (sym.ref, 0) not in _BY_ALT:
        return table.rules[sym.ref][0]
    return None


def _value_name(table: RuleTable, sym: Symbol) -> str | None:
    """The field symbol an item fills, or None when it only spells syntax."""
    if sym.kind == "role":
        return sym.ref.name if sym.ref in _LEAVES else None
    alt = _group(table, sym)
    if alt is not None:
        (name,) = filter(None, (_value_name(table, s) for s in alt))
        return name
    return sym.ref


def _slots(table: RuleTable, rule: str, k: int) -> list[int | None]:
    """The value slot each item of an alternative fills, if any; raises
    ValueError unless the items fill exactly the node's fields."""
    names = [_value_name(table, sym) for sym in table.rules[rule][k]]
    cls = _BY_ALT.get((rule, k))
    free = list(_NODES[cls][2]) if cls else [n for n in names if n][:1]
    slots = []
    for name in names:
        slots.append(None if name is None else free.index(name))
        if name is not None:
            free[slots[-1]] = ""
    if any(free):
        raise ValueError(f"{rule} alternative {k} lacks a field of {cls}")
    return slots


def _compile_rules(table: RuleTable) -> dict[str, tuple]:
    rules = {}
    for rule, alts in table.rules.items():
        compiled = []
        for k, alt in enumerate(alts):
            items = []
            for sym, slot in zip(alt, _slots(table, rule, k)):
                if sym.kind == "class":
                    convert = _LITERALS[sym.ref][0]
                elif slot is not None and sym.kind == "role":
                    convert = (lambda _, leaf=_LEAVES[sym.ref]: leaf)
                else:
                    convert = None
                items.append((sym.kind == "rule", sym.ref, sym.quant, slot,
                              convert))
            cls = _BY_ALT.get((rule, k))
            compiled.append((tuple(items), len(_NODES[cls][2]) if cls else 1,
                             cls and _MAKERS.get(cls, cls)))
        rules[rule] = tuple(compiled)
    return rules


_RULES = {style: _compile_rules(table) for style, table in RULE_TABLES.items()}


# --- linearization -----------------------------------------------------------

# Template piece ops; plain strings are literal text.
_NODE, _TEXT, _BLOCK, _OPTIONAL = range(4)


def linearize(program: Program, g: GrammarSpec) -> str:
    """Render a program under ``g`` by the layout rule in the module
    docstring; parse(linearize(t, g), g) recovers t.  Layouts spell roles
    as numbered format fields, filled in once at the end."""
    roles, templates = _LAYOUTS[g.style]
    out: list[str] = []
    _emit(program, templates[Program], "", out, templates)
    text = "".join(out).format(*[g.terminals[role] for role in roles])
    return text.strip("\n")


def _emit(node, pieces: tuple, pad: str, out: list[str],
          templates: dict) -> None:
    for piece in pieces:
        if piece.__class__ is str:
            out.append(piece)
            continue
        op, get, arg = piece
        if op is _NODE:
            child = get(node)
            _emit(child, templates[child.__class__], pad, out, templates)
        elif op is _TEXT:
            out.append(arg(get(node)))
        elif op is _BLOCK:
            inner = pad + arg
            for stmt in get(node):
                out.append("\n" + inner)
                _emit(stmt, templates[stmt.__class__], inner, out, templates)
            out.append("\n" + pad)  # the token after a block
        elif get(node) is not None:  # _OPTIONAL: arg spells it when present
            _emit(node, arg, pad, out, templates)


def _layout(style) -> tuple[tuple[R, ...], dict[type, tuple]]:
    """The style's roles, and per AST class the pieces that spell it."""
    table, roles = RULE_TABLES[style], used_roles(style)
    numbers = {role: k for k, role in enumerate(roles)}
    layouts = {}
    for cls, (rule, k, _) in _NODES.items():
        attrs = [f.name for f in fields(cls)]
        getters = [None if slot is None else _GETTERS.get(
            (cls, attrs[slot]), attrgetter(attrs[slot]))
            for slot in _slots(table, rule, k)]
        layouts[cls] = _pieces(table, table.rules[rule][k], getters, numbers,
                               "" if rule == "start" else "  ")
    return roles, layouts


def _pieces(table: RuleTable, items: tuple[Symbol, ...], getters: list,
            numbers: dict, indent: str) -> tuple:
    """Lay out one alternative, merging adjacent literal text.  An optional
    item must leave its neighbours' layout as its absence would."""
    pieces: list = []
    prev = None
    for sym, get in zip(items, getters):
        if sym.kind == "role":
            spelled = ["{%d}" % numbers[sym.ref]]
        elif sym.kind == "class":
            spelled = [(_TEXT, get, _LITERALS[sym.ref][1])]
        elif sym.quant in ("*", "+"):
            spelled = [(_BLOCK, get, indent)]
        elif _group(table, sym):
            alt = _group(table, sym)
            spelled = list(_pieces(table, alt, [get] * len(alt), numbers,
                                   indent))
        elif all(alt[0].ref in _LEAVES for alt in table.rules[sym.ref]):
            spelled = [(_TEXT, get, {
                _LEAVES[alt[0].ref]: "{%d}" % numbers[alt[0].ref]
                for alt in table.rules[sym.ref]}.__getitem__)]
        else:
            spelled = [(_NODE, get, None)]
        sep = [] if prev is None else _separator(table, prev, sym)
        if sym.quant == "?":
            pieces.append((_OPTIONAL, get, _merge(sep + spelled)))
        else:
            pieces.extend(sep + spelled)
            prev = sym
    return _merge(pieces)


def _separator(table: RuleTable, a: Symbol, b: Symbol) -> list[str]:
    """The layout rule between adjacent items ``a`` and ``b``; a block
    itself breaks the lines around its statements."""
    a = (_group(table, a) or (a,))[-1]
    b = (_group(table, b) or (b,))[0]
    if a.quant in ("*", "+") or b.quant in ("*", "+") or a.ref is R.PAR_L \
            or b.ref in (R.PAR_R, R.SEMI):
        return []
    return [" "]


def _merge(pieces: list) -> tuple:
    merged: list = []
    for piece in pieces:
        if piece.__class__ is str and merged and merged[-1].__class__ is str:
            merged[-1] += piece
        else:
            merged.append(piece)
    return tuple(merged)


_LAYOUTS = {style: _layout(style) for style in RULE_TABLES}
