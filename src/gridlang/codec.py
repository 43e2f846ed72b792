"""Codec: linearize ASTs to styled text and parse text back.

Both directions are compiled from ``grammar.RULE_TABLES``, read from the
lines ``render_ebnf`` prints, so the language parsed is the EBNF shown.
The canonical tree form behind ``ast.canon_serialize``/``ast.canon_parse``
is compiled the same way from ``grammar.CANON_RULES``, with its fixed
lexicon and every block kept on one line.

Tokenization is whitespace-insensitive: word characters clump, every other
non-space character stands alone, so ``repeat(3+4)iters`` and
``repeat ( 3 + 4 ) iters`` split identically.  A word's symbol is the role
the grammar binds it to, else the first literal class (``INT``, ``ITEM``)
whose pattern it matches in full, else None.  ``tokenize`` gives the words
of a text, their symbols and their offsets as three plain lists, for
``tasks.perturb``.  Parsing and ``code_start``, which finds the code at the
end of an answer for ``harness.extract_code``, need no offsets and split
the text themselves.  Each distinct word is classified once, and no object
is made per word.

The parser is one plain Python function per rule, generated from the
style's rule table and compiled once at import: straight-line terminal
tests, sub-rule calls and block loops, with no interpretation of the table
while parsing.  Each function tries its rule's alternatives in order;
every style is LL(2), so work stays linear.  A rejection reports the
furthest token reached.  Before any word list is made, text nested deeper
than ``MAX_NESTING`` brackets is rejected at the first token past that
depth, found from the text's bracket characters alone, so recursion stays
far from Python's limit and a megabyte of brackets costs milliseconds.
Text is then split by one pattern that swallows the space before each
word.

The linearizer is generated and compiled at import the same way: one plain
function per AST class that returns its node's text as one f-string, with
no interpretation of the table while rendering.  A style's role tokens
arrive as a tuple per call, so one compiled linearizer serves every lexicon
of its style; the canonical form passes its fixed tokens.

Layout rule: single spaces between tokens, except none after ``PAR_L`` or
before ``PAR_R``/``SEMI``; each statement of a ``stmt+``/``stmt*`` block on
its own line, two spaces deeper than the statement holding the block (top
level at column 0); the token after a block on a new line at the outer
indent.  The canonical form keeps a block's statements on one line, apart
by single spaces, and spaces around a block as around any other item.  An
optional item is rendered when its field is set, so one whose field has
no default, a move's count, always is.
"""

from __future__ import annotations

import enum
import re
from dataclasses import MISSING, fields
from itertools import accumulate, islice, repeat
from operator import indexOf, itemgetter
from typing import Callable

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
    CANON_RULES,
    CANON_TERMINALS,
    PUNCT_CHARS,
    RULE_TABLES,
    USED_ROLES,
    GrammarSpec,
    RuleTable,
    Symbol,
    TerminalRole as R,
)

__all__ = [
    "tokenize",
    "ParseError",
    "parse",
    "linearize",
]

_WORD_RE = re.compile(r"\s*([A-Za-z0-9_]+|\S)")  # swallows the space before
_BRACKET_RE = re.compile(r"[()\[\]{}]")
_NOT_BRACKETS = bytes(sorted(set(range(256)).difference(b"()[]{}")))
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

# Literal classes: (text -> value, value -> text).  An item is its name, and
# the grammar's ITEM pattern admits exactly the ``ITEM_VOCAB`` names.
_LITERALS = {"INT": (int, str), "ITEM": (str, str)}


def _move(dir: MoveDir, steps) -> Move:
    """``MOVE MOVE_DIR expr?`` without the count moves one step."""
    return Move(dir, Literal(1) if steps is None else steps)


_MAKERS = {Move: _move}


# --- words -------------------------------------------------------------------


def _word_symbols(words: list[str], roles: dict[str, R],
                  classes: dict[str, re.Pattern]) -> dict[str, R | str | None]:
    """Each distinct word -> the role bound to it, else its literal class,
    else None.  A program repeats few distinct words many times."""
    roles, classes = roles.get, classes.items()
    symbols = {}
    for word in set(words):
        sym = roles(word)
        if sym is None:
            for name, pattern in classes:
                if pattern.fullmatch(word):
                    sym = name
                    break
        symbols[word] = sym
    return symbols


def _words(text: str, pos: int = 0) -> list[str]:
    """The words of ``text[pos:]``, split as ``tokenize`` splits them.

    The pattern swallows the space before each word, so the search never
    restarts inside a run of space.  Trailing space is cut off first: the
    pattern would fail there at each character after scanning the rest,
    quadratic work."""
    return _WORD_RE.findall(text, pos, len(text.rstrip()))


def tokenize(text: str, g: GrammarSpec
             ) -> tuple[list[str], list[R | str | None], list[int]]:
    """The words of ``text`` as ``parse`` splits them, the symbol ``g``
    gives each (its role, else its literal class name, else None) and the
    offset each starts at.  Never fails: an unknown word's symbol is None."""
    words = _words(text)
    symbols = _word_symbols(words, g.keyword_roles,
                            RULE_TABLES[g.style].classes)
    starts = list(map(re.Match.start, _WORD_RE.finditer(
        text, 0, len(text.rstrip())), repeat(1)))
    return words, list(map(symbols.__getitem__, words)), starts


def code_start(text: str, g: GrammarSpec) -> int:
    """Where the longest trailing run of words ``g`` knows begins in
    ``text``; 0 when the last word is unknown, there is no word, or the
    run is all of ``text``.

    A known word is a bracket or separator character, a bound terminal or
    a literal: one of ``PUNCT_CHARS``, or a word with a symbol.
    The run starts after the last mark no known word contains, so only
    the text after it is split, each distinct word is classified once and
    the list is scanned backward."""
    tail = len(text) - _code_chars(g).match(text[::-1]).end()
    words = _words(text, tail)
    symbols = _word_symbols(words, g.keyword_roles,
                            RULE_TABLES[g.style].classes)
    known = {word: sym is not None or word in PUNCT_CHARS
             for word, sym in symbols.items()}
    try:  # the run follows the last unknown word
        cut = len(words) - indexOf(map(known.__getitem__, reversed(words)),
                                   False)
    except ValueError:  # every word is known
        cut = 0
    if cut == len(words) or (cut == 0 and tail == 0):
        return 0
    return next(islice(_WORD_RE.finditer(text, tail), cut, None)).start(1)


def _code_chars(g: GrammarSpec) -> re.Pattern:
    """A run of the characters known words and the space between them are
    made of: word characters, brackets and the grammar's one-character
    operators.  Any other character is an unknown word of its own.
    (``re`` keeps the compiled pattern of each grammar's marks.)"""
    marks = sorted(PUNCT_CHARS.union(
        word for word in g.keyword_roles if len(word) == 1))
    return re.compile(r"[\sA-Za-z0-9_" + re.escape("".join(marks)) + "]*")


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


def parse(code: str, g: GrammarSpec) -> Program:
    """Parse styled code under grammar ``g``; raises ParseError to reject.

    The whole token stream must be consumed: trailing tokens reject.
    """
    return _parse(code, _PARSERS[g.style], RULE_TABLES[g.style].classes,
                  g.keyword_roles, g.terminals)


def parse_canonical(text: str) -> Program:
    """The tree of canonical text; raises ParseError to reject."""
    if not isinstance(text, str):
        raise ParseError(0, "text", type(text).__name__)
    return _parse(text, _CANON_PARSER, CANON_RULES.classes, _CANON_ROLES,
                  CANON_TERMINALS)


def _parse(code: str, parse_words: Callable,
           classes: dict[str, re.Pattern], roles: dict[str, R],
           terminals: dict[R, str]) -> Program:
    """Run a compiled parser over the words of ``code``, bound by ``roles``
    and ``classes``; ``terminals`` spells an expected role."""
    if code.count("(") + code.count("[") + code.count("{") > MAX_NESTING:
        _check_nesting(code)
    words = _words(code)
    symbols = _word_symbols(words, roles, classes)
    syms = list(map(symbols.__getitem__, words))
    syms.append(None)  # past the last word no terminal matches
    result, far, want = parse_words(words, syms)
    n = len(words)
    if result is not None:
        if result[1] == n:
            return result[0]
        if result[1] >= far:
            far, want = result[1], "end of input"
    found = repr(words[far]) if far < n else "end of input"
    raise ParseError(far, repr(terminals[want]) if isinstance(want, R)
                     else want, found)


def _check_nesting(code: str) -> None:
    """Reject ``code`` at its first word nested deeper than ``MAX_NESTING``
    brackets, before any word list is made.

    Every bracket is a word of its own, and a bracket is one byte in
    UTF-8, so depth is read from the bracket bytes alone and the scan
    stops at the first one too deep; only then are the words before that
    bracket counted for the position."""
    brackets = code.encode("utf-8", "surrogatepass").translate(
        None, _NOT_BRACKETS).decode("ascii")
    depths = accumulate(map(_NESTING_STEP.__getitem__, brackets))
    try:
        k = indexOf(map(MAX_NESTING.__lt__, depths), True)
    except ValueError:
        return
    at = next(islice(_BRACKET_RE.finditer(code), k, None)).start()
    raise ParseError(len(_words(code[:at])),
                     f"at most {MAX_NESTING} nested brackets", repr(code[at]))


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


def _function(rule: str) -> str:
    return "r_" + rule.replace(".", "_")


def _compile_parser(table: RuleTable) -> Callable:
    """Generate and compile one plain function per rule of ``table``.

    The rule functions nest in ``parse_words(words, syms)``, which returns
    start's result with ``far``, the furthest token a required terminal
    failed at, and ``want``, the last terminal expected there.  A rule
    function returns (value, next position), or None when no alternative
    matches.  It tries its alternatives in order, each the body of a
    ``while True`` that a failing item leaves by ``break`` and a match
    leaves by ``return``.  ``syms`` ends in a None that no terminal
    matches, so no test checks the length.  The rule functions call each
    other through their closures, a reference cycle that ``parse_words``
    breaks on leaving, so a parse leaves no garbage for the cyclic
    collector.  The source is compiled over a namespace holding only the
    table's constants.
    """
    namespace: dict = {"ParseError": ParseError}

    def constant(name: str, value) -> str:
        namespace[name] = value
        return name

    out = ["def parse_words(words, syms):",
           "    far, want = 0, 'statement'"]
    for rule, alts in table.rules.items():
        out += [f"    def {_function(rule)}(i):",
                "        nonlocal far, want"]
        for k, alt in enumerate(alts):
            cls = _BY_ALT.get((rule, k))
            if cls is None and len(alt) == 1 and alt[0].kind == "rule" \
                    and not alt[0].quant:  # passes the sub-rule's value on
                out += [f"        r = {_function(alt[0].ref)}(i)",
                        "        if r is not None:",
                        "            return r"]
                continue
            body = ["j = i"]
            for sym, slot in zip(alt, _slots(table, rule, k)):
                body += _item(sym, f"v{slot}", constant)
            if cls is None:
                body.append("return v0, j")
            else:
                maker = constant(cls.__name__, _MAKERS.get(cls, cls))
                args = ", ".join(f"v{s}" for s in range(len(_NODES[cls][2])))
                body.append(f"return {maker}({args}), j")
            out.append("        while True:")
            out += ["            " + line for line in body]
        out.append("        return None")
    out += ["    try:",
            "        return r_start(0), far, want",
            "    finally:",
            "        del " + ", ".join(map(_function, table.rules))]
    exec(compile("\n".join(out) + "\n", "<parser>", "exec"), namespace)
    return namespace["parse_words"]


def _item(sym: Symbol, value: str, constant: Callable) -> list[str]:
    """Lines that match one item at ``j``, leaving ``j`` past it and the
    value it carries, if any, in ``value``; a failure breaks."""
    if sym.kind == "rule":
        call = f"{_function(sym.ref)}(j)"
        if sym.quant == "?":
            return [f"{value} = None", f"r = {call}", "if r is not None:",
                    f"    {value}, j = r"]
        if not sym.quant:
            return [f"r = {call}", "if r is None:", "    break",
                    f"{value}, j = r"]
        lines = [f"{value} = []", f"r = {call}", "while r is not None:",
                 f"    {value}.append(r[0])", "    j = r[1]", f"    r = {call}"]
        if sym.quant == "+":
            lines += [f"if not {value}:", "    break"]
        return lines + [f"{value} = tuple({value})"]
    if sym.quant:
        raise ValueError(f"no style quantifies a terminal, got {sym}")
    if sym.kind == "role":
        ref = constant(sym.ref.name, sym.ref)
        miss = f"syms[j] is not {ref}"
        fill = [] if sym.ref not in _LEAVES else [
            f"{value} = {constant('V_' + ref, _LEAVES[sym.ref])}"]
    else:
        ref = constant(sym.ref, sym.ref)
        miss = f"syms[j] != {ref}"
        convert = constant("convert_" + ref, _LITERALS[sym.ref][0])
        # a literal the class admits may still not convert, e.g. past
        # int()'s digit limit: a rejection at its token
        fill = ["try:",
                f"    {value} = {convert}(words[j])",
                "except ValueError:",
                f"    raise ParseError(j, {ref}, repr(words[j])) from None"]
    return [f"if {miss}:", "    if j >= far:",
            f"        far, want = j, {ref}", "    break"] + fill + ["j += 1"]


_PARSERS = {style: _compile_parser(table)
            for style, table in RULE_TABLES.items()}
_CANON_PARSER = _compile_parser(CANON_RULES)
_CANON_ROLES = {token: role for role, token in CANON_TERMINALS.items()}


# --- linearization -----------------------------------------------------------

def linearize(program: Program, g: GrammarSpec) -> str:
    """Render a program under ``g`` by the layout rule in the module
    docstring; parse(linearize(t, g), g) recovers t."""
    return _LINEARIZERS[g.style](program, "", _TOKENS[g.style](
        g.terminals)).strip("\n")


def render_canonical(program: Program) -> str:
    """The canonical text of a program; parse_canonical recovers it."""
    return _CANON_LINEARIZER(program, "", _CANON_TOKENS)


def _compile_linearizer(table: RuleTable, roles: tuple[R, ...],
                        one_line: bool = False) -> Callable:
    """Generate and compile one plain function per AST class of ``table``.

    ``e_<class>(n, pad, t)`` returns the text of node ``n`` by the layout
    rule, as one f-string: the statements of its blocks indented past
    ``pad`` (or on one line with ``one_line``), each role spelled by its
    token in ``t``, which holds one token per ``roles``, and each child's
    text from the function its class maps to in ``E``.  The functions are
    globals of the namespace they are compiled over, so a call makes no
    closure and leaves no garbage for the cyclic collector.  Returns the
    function of ``Program``.
    """
    namespace: dict = {"E": {}}

    def constant(name: str, value) -> str:
        namespace[name] = value
        return name

    out = []
    for cls, (rule, k, _) in _NODES.items():
        attrs = [f.name for f in fields(cls)]
        # a field without a default is never None
        nullable = {f.name for f in fields(cls) if f.default is not MISSING}
        slots = _slots(table, rule, k)
        name = constant(cls.__name__, cls)
        lines: list[str] = []
        text = _text(table, table.rules[rule][k],
                     [None if s is None else attrs[s] for s in slots],
                     nullable, roles,
                     None if one_line else "" if rule == "start" else "  ",
                     lines, constant)
        out += [f"def e_{name}(n, pad, t):", *lines, f"    return f{text!r}",
                f"E[{name}] = e_{name}"]
    exec(compile("\n".join(out) + "\n", "<linearizer>", "exec"), namespace)
    return namespace["e_Program"]


def _text(table: RuleTable, items: tuple[Symbol, ...], attrs: list,
          nullable: set[str], roles: tuple[R, ...], indent: str | None,
          lines: list[str], constant: Callable) -> str:
    """The f-string body that lays out one alternative, its items' fields
    named by ``attrs``; lines to run first go to ``lines``.  An indent of
    None keeps blocks on one line.  An optional item whose field is not in
    ``nullable`` is always rendered; one whose field may be None must
    leave its neighbours' layout as its absence would."""
    text, prev = "", None
    for sym, attr in zip(items, attrs):
        get, var = f"n.{attr}", f"v{len(lines)}"
        sep = "" if prev is None else _separator(table, prev, sym,
                                                 indent is None)
        if sym.quant == "?" and attr in nullable:
            # its text, or none, in a variable first; an optional item
            # whose field is never None is rendered as a required one
            mark, var = len(lines), f"o{len(lines)}"
            spelled = _text(table, (sym._replace(quant=""),), [attr],
                            nullable, roles, indent, lines, constant)
            lines[mark:] = [f"    if {get} is not None:",
                            *["    " + line for line in lines[mark:]],
                            f"        {var} = f{sep + spelled!r}",
                            "    else:", f"        {var} = ''"]
            text += f"{{{var}}}"
            continue
        if sym.kind == "role":
            spelled = "{t[%d]}" % roles.index(sym.ref)
        elif sym.kind == "class":
            render = constant("render_" + sym.ref, _LITERALS[sym.ref][1])
            spelled = f"{{{render}({get})}}"
        elif sym.quant in ("*", "+"):
            emit = "E[s.__class__](s, %s, t) for s in " + get
            if indent is None:
                lines.append(f"    {var} = ' '.join([{emit % 'pad'}])")
                spelled = f"{{{var}}}"
            else:
                lines += [f"    inner = pad + {indent!r}",
                          "    nl = '\\n' + inner",
                          f"    {var} = ''.join([nl + {emit % 'inner'}])"]
                spelled = f"{{{var}}}\n{{pad}}"
        elif _group(table, sym):
            alt = _group(table, sym)
            spelled = _text(table, alt, [attr] * len(alt), nullable, roles,
                            indent, lines, constant)
        elif all(alt[0].ref in _LEAVES for alt in table.rules[sym.ref]):
            *tests, last = [alt[0].ref for alt in table.rules[sym.ref]]
            spelled = "{%st[%d]}" % ("".join(
                f"t[{roles.index(r)}] if {get} is "
                f"{constant('V_' + r.name, _LEAVES[r])} else "
                for r in tests), roles.index(last))
        else:
            spelled = f"{{E[{get}.__class__]({get}, pad, t)}}"
        text += sep + spelled
        prev = sym
    return text


def _separator(table: RuleTable, a: Symbol, b: Symbol,
               one_line: bool) -> str:
    """The layout rule between adjacent items ``a`` and ``b``; a block not
    on one line itself breaks the lines around its statements."""
    a = (_group(table, a) or (a,))[-1]
    b = (_group(table, b) or (b,))[0]
    if a.ref is R.PAR_L or b.ref in (R.PAR_R, R.SEMI) or not one_line and (
            a.quant in ("*", "+") or b.quant in ("*", "+")):
        return ""
    return " "


_LINEARIZERS = {style: _compile_linearizer(table, USED_ROLES[style])
                for style, table in RULE_TABLES.items()}
_TOKENS = {style: itemgetter(*USED_ROLES[style]) for style in RULE_TABLES}
_CANON_LINEARIZER = _compile_linearizer(CANON_RULES, tuple(CANON_TERMINALS),
                                        one_line=True)
_CANON_TOKENS = tuple(CANON_TERMINALS.values())
