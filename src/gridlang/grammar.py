"""Surface grammar synthesis: syntactic styles and lexicon sampling.

A grammar couples one of three fixed production skeletons (block keywords,
C-style braces, S-expressions) with a terminal lexicon.  Natural lexicons
draw one synonym per keyword role from small fixed pools; alien lexicons
draw opaque ``v_xxxx`` tokens so that a model can rely on neither token
priors nor memorized syntax.  Punctuation is never aliened.  A binding is
a pool word, ``v_xxxx`` or one punctuation character, never an item name
or an integer, so this module imports no other gridlang module.

The production lines are the one description of each style's syntax, and
of the canonical tree form that datasets store as ``gold_ast``.  At import
they compile into a ``RuleTable`` per style (``RULE_TABLES``) and one for
the canonical form (``CANON_RULES``), from which ``codec`` derives both its
parsers and its linearizers; ``render_ebnf`` prints the same lines, so the
text embedded verbatim in prompts and dataset records is by construction
the language that is parsed.  The canonical form is a fixed-lexicon
S-expression (``CANON_TERMINALS``), not a ``Style``: no prompt shows it.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "Style",
    "LexiconMode",
    "TerminalRole",
    "GrammarSpec",
    "NATURAL_POOLS",
    "PUNCT_ROLES",
    "PUNCT_CHARS",
    "Symbol",
    "RuleTable",
    "RULE_TABLES",
    "CANON_RULES",
    "CANON_TERMINALS",
    "USED_ROLES",
    "build_grammar",
    "render_ebnf",
    "grammar_from_text",
]


class Style(enum.Enum):
    BLOCK = "block"
    C = "c"
    SEXPR = "sexpr"


class LexiconMode(enum.Enum):
    NATURAL = "natural"
    ALIEN = "alien"


class TerminalRole(enum.Enum):
    DO = "DO"
    END = "END"
    LOOP = "LOOP"
    TIMES = "TIMES"
    IF = "IF"
    THEN = "THEN"
    ELSE = "ELSE"
    LBR = "LBR"
    RBR = "RBR"
    PAR_L = "PAR_L"
    PAR_R = "PAR_R"
    SEMI = "SEMI"
    MOVE = "MOVE"
    TURN = "TURN"
    GRAB = "GRAB"
    HOLDING = "HOLDING"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    DIR_FWD = "DIR_FWD"
    DIR_BWD = "DIR_BWD"
    DIR_LEFT = "DIR_LEFT"
    DIR_RIGHT = "DIR_RIGHT"
    OP_ADD = "OP_ADD"
    OP_MUL = "OP_MUL"
    # used by the canonical form only
    PROG = "PROG"
    NUM = "NUM"

    # Members are singletons compared by identity, so the identity hash,
    # computed in C, serves; ``Enum.__hash__`` is a Python function that
    # every role-keyed lookup would call.
    __hash__ = object.__hash__


R = TerminalRole

# Keyword synonym pools for Natural mode.  Frozen: changing these changes
# every sampled lexicon downstream of a given seed.
NATURAL_POOLS: dict[TerminalRole, tuple[str, ...]] = {
    R.DO: ("do", "exec", "act"),
    R.END: ("end", "stop", "fin"),
    R.LOOP: ("loop", "repeat", "run"),
    R.TIMES: ("times", "iters", "x"),
    R.IF: ("if", "when"),
    R.THEN: ("then", "next", "after"),
    R.ELSE: ("else", "otherwise"),
    R.MOVE: ("move", "go"),
    R.TURN: ("turn",),
    R.GRAB: ("grab", "take"),
    R.HOLDING: ("holding", "has"),
    R.AND: ("and", "plus_and"),
    R.OR: ("or", "alt"),
    R.NOT: ("not", "no"),
    R.DIR_FWD: ("forward",),
    R.DIR_BWD: ("backward",),
    R.DIR_LEFT: ("left",),
    R.DIR_RIGHT: ("right",),
    R.OP_ADD: ("+", "plus"),
    R.OP_MUL: ("*", "times"),
}

PUNCT_ROLES = frozenset({R.LBR, R.RBR, R.PAR_L, R.PAR_R, R.SEMI})
# the characters a punctuation role binds, one each
PUNCT_CHARS = frozenset("[]{}();")

# Block style draws its bracket pair; C style always uses braces.  S-expr
# grammars have no bracket roles at all.
_BLOCK_BRACKET_CHOICES = (("[", "]"), ("{", "}"))

_PRODUCTIONS: dict[Style, tuple[str, ...]] = {
    Style.BLOCK: (
        "start: stmt+",
        "stmt: action_stmt | loop | if_stmt",
        "action_stmt: DO action END",
        "loop: LOOP expr TIMES LBR stmt+ RBR",
        "if_stmt: IF cond THEN LBR stmt+ RBR (ELSE LBR stmt+ RBR)?",
        "action: MOVE MOVE_DIR expr? | TURN TURN_DIR | GRAB ITEM",
        "expr: INT | PAR_L expr op_arith expr PAR_R",
        "op_arith: OP_ADD | OP_MUL",
        "cond: HOLDING ITEM | NOT PAR_L cond PAR_R | PAR_L cond op_bool cond PAR_R",
        "op_bool: AND | OR",
    ),
    Style.C: (
        "start: stmt+",
        "stmt: action_stmt | loop | if_stmt",
        "action_stmt: action SEMI",
        "loop: LOOP PAR_L expr PAR_R LBR stmt* RBR",
        "if_stmt: IF PAR_L cond PAR_R LBR stmt* RBR (ELSE LBR stmt* RBR)?",
        "action: MOVE MOVE_DIR expr? | TURN TURN_DIR | GRAB ITEM",
        "expr: INT | PAR_L expr op_arith expr PAR_R",
        "op_arith: OP_ADD | OP_MUL",
        "cond: HOLDING ITEM | NOT PAR_L cond PAR_R | PAR_L cond op_bool cond PAR_R",
        "op_bool: AND | OR",
    ),
    Style.SEXPR: (
        "start: stmt+",
        "stmt: action_stmt | loop | if_stmt",
        "action_stmt: PAR_L action PAR_R",
        "loop: PAR_L LOOP expr stmt+ PAR_R",
        "if_stmt: PAR_L IF cond THEN stmt+ (ELSE stmt+)? PAR_R",
        "action: MOVE MOVE_DIR expr? | TURN TURN_DIR | GRAB ITEM",
        "expr: INT | PAR_L op_arith expr expr PAR_R",
        "op_arith: OP_ADD | OP_MUL",
        "cond: PAR_L HOLDING ITEM PAR_R | PAR_L NOT cond PAR_R | PAR_L op_bool cond cond PAR_R",
        "op_bool: AND | OR",
    ),
}

_CLASS_LINES = (
    "MOVE_DIR: DIR_FWD | DIR_BWD",
    "TURN_DIR: DIR_LEFT | DIR_RIGHT",
    "INT: /[0-9]+/",
    "ITEM: /(item|key|box|ball|cube)(_[0-4])?/",
)

# The canonical tree form: same rule names and alternative order as the
# styles, so one node map serves all four; every node is parenthesized and
# tagged, and an action statement is its action.
_CANON_PRODUCTIONS = (
    "start: PAR_L PROG stmt+ PAR_R",
    "stmt: action_stmt | loop | if_stmt",
    "action_stmt: action",
    "loop: PAR_L LOOP expr PAR_L stmt* PAR_R PAR_R",
    "if_stmt: PAR_L IF cond PAR_L stmt* PAR_R (PAR_L stmt* PAR_R)? PAR_R",
    "action: PAR_L MOVE MOVE_DIR expr? PAR_R | PAR_L TURN TURN_DIR PAR_R | PAR_L GRAB ITEM PAR_R",
    "expr: PAR_L NUM INT PAR_R | PAR_L op_arith expr expr PAR_R",
    "op_arith: OP_ADD | OP_MUL",
    "cond: PAR_L HOLDING ITEM PAR_R | PAR_L NOT cond PAR_R | PAR_L op_bool cond cond PAR_R",
    "op_bool: AND | OR",
)

CANON_TERMINALS: dict[TerminalRole, str] = {
    R.PAR_L: "(", R.PAR_R: ")", R.PROG: "prog", R.LOOP: "loop", R.IF: "if",
    R.MOVE: "move", R.TURN: "turn", R.GRAB: "grab", R.NUM: "int",
    R.OP_ADD: "add", R.OP_MUL: "mul", R.HOLDING: "holding", R.NOT: "not",
    R.AND: "and", R.OR: "or", R.DIR_FWD: "F", R.DIR_BWD: "B",
    R.DIR_LEFT: "L", R.DIR_RIGHT: "R",
}

_ALIEN_RE = re.compile(r"v_[a-z]{4}\Z")
_ROLE_NAMES = frozenset(r.name for r in TerminalRole)


class Symbol(NamedTuple):
    """One item of an alternative: a "role" (``ref`` is a TerminalRole), a
    literal "class" or a "rule" (group ``k`` of rule ``r`` is the anonymous
    rule ``r.k``); ``quant`` is "", "?", "*" or "+"."""

    kind: str
    ref: TerminalRole | str
    quant: str


class RuleTable(NamedTuple):
    """A style's rules (name -> alternatives in source order) and literal
    classes (name -> pattern)."""

    rules: dict[str, tuple[tuple[Symbol, ...], ...]]
    classes: dict[str, re.Pattern]


_GROUP_RE = re.compile(r"\(([^()]*)\)")


def _compile_rules(lines: tuple[str, ...]) -> RuleTable:
    """Read ``name: alt | alt`` and ``NAME: /regex/`` lines into a table."""
    bodies: dict[str, str] = {}
    classes = {}
    for line in lines:
        name, _, body = line.partition(": ")
        if body.startswith("/"):
            classes[name] = re.compile(body.strip("/"))
            continue
        parts = _GROUP_RE.split(body)
        for k in range(1, len(parts), 2):  # odd parts are group bodies
            group = f"{name}.{k // 2}"
            bodies[group], parts[k] = parts[k], group
        bodies[name] = "".join(parts)

    def symbol(word: str) -> Symbol:
        base = word.rstrip("?*+")
        quant = word[len(base):]
        if base in _ROLE_NAMES:
            return Symbol("role", TerminalRole(base), quant)
        return Symbol("class" if base in classes else "rule", base, quant)

    return RuleTable({name: tuple(tuple(map(symbol, alt.split()))
                                  for alt in body.split("|"))
                      for name, body in bodies.items()}, classes)


# Compiled once at import from exactly the lines ``render_ebnf`` prints.
RULE_TABLES: dict[Style, RuleTable] = {
    style: _compile_rules(_PRODUCTIONS[style] + _CLASS_LINES)
    for style in Style
}
CANON_RULES = _compile_rules(_CANON_PRODUCTIONS + _CLASS_LINES)

# per style, the roles that occur in its rule table, in enum order
USED_ROLES: dict[Style, tuple[TerminalRole, ...]] = {
    style: tuple(r for r in TerminalRole if r in {
        sym.ref for alts in table.rules.values() for alt in alts
        for sym in alt if sym.kind == "role"})
    for style, table in RULE_TABLES.items()
}


@dataclass(frozen=True)
class GrammarSpec:
    """A fully bound surface grammar: style, lexicon mode, terminal map."""

    style: Style
    mode: LexiconMode
    terminals: dict[TerminalRole, str]
    keyword_roles: dict[str, TerminalRole] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        tokens = list(self.terminals.values())
        if len(set(tokens)) != len(tokens):
            raise ValueError("terminal tokens are not pairwise distinct")
        for role, token in self.terminals.items():
            if role in PUNCT_ROLES:
                if token not in PUNCT_CHARS:
                    raise ValueError(f"{role.name} must bind one punctuation "
                                     f"character, got {token!r}")
            elif self.mode is LexiconMode.ALIEN:
                if not _ALIEN_RE.match(token):
                    raise ValueError(f"alien binding {token!r} for "
                                     f"{role.name} is not v_xxxx shaped")
            elif token not in NATURAL_POOLS.get(role, ()):
                raise ValueError(f"{token!r} is outside the {role.name} pool")
        missing = [r.name for r in USED_ROLES[self.style]
                   if r not in self.terminals]
        if missing:
            raise ValueError(f"style {self.style.value} needs bindings for "
                             f"{', '.join(missing)}")
        # reverse map for the tokenizer
        object.__setattr__(
            self, "keyword_roles",
            {tok: role for role, tok in self.terminals.items()},
        )

    def token(self, role: TerminalRole) -> str:
        """``terminals[role]``; kept while ``perfbench/synth.py`` calls it."""
        return self.terminals[role]


def build_grammar(style: Style, mode: LexiconMode, seed: int) -> GrammarSpec:
    """Deterministically synthesize a grammar from (style, mode, seed).

    One token is drawn per role used by ``style``, tokens pairwise
    distinct.  Roles are visited in enum order, each drawing from its
    remaining options, so overlapping pools (TIMES and OP_MUL both contain
    "times") cannot collide.  Alien draws are rejection-sampled to
    distinctness.
    """
    rng = random.Random(seed)
    if style is Style.BLOCK:
        lbr, rbr = _BLOCK_BRACKET_CHOICES[rng.randrange(2)]
    else:
        lbr, rbr = "{", "}"
    punct = {R.LBR: lbr, R.RBR: rbr, R.PAR_L: "(", R.PAR_R: ")", R.SEMI: ";"}
    terminals: dict[TerminalRole, str] = {}
    taken: set[str] = set()
    for role in USED_ROLES[style]:
        if role in PUNCT_ROLES:
            token = punct[role]
        elif mode is LexiconMode.ALIEN:
            token = _draw_alien(rng, taken)
        else:
            options = [t for t in NATURAL_POOLS[role] if t not in taken]
            token = options[rng.randrange(len(options))]
        terminals[role] = token
        taken.add(token)
    return GrammarSpec(style=style, mode=mode, terminals=terminals)


def render_ebnf(g: GrammarSpec) -> str:
    """Render the grammar: productions first, then ``ROLE: "token"`` lines.

    Deterministic.  ``codec`` compiles its parser and linearizer from these
    same production and class lines, so the text is exactly the language
    the parser for ``g`` accepts.
    """
    lines = list(_PRODUCTIONS[g.style])
    lines.extend(_CLASS_LINES)
    for role in USED_ROLES[g.style]:
        lines.append(f'{role.name}: "{g.terminals[role]}"')
    return "\n".join(lines) + "\n"


_TERMINAL_LINE_RE = re.compile(r"([A-Z_]+): \"(.+)\"\Z")


def grammar_from_text(style: Style, mode: LexiconMode,
                      text: str) -> GrammarSpec:
    """Rebuild a GrammarSpec from rendered grammar text.

    Inverse of render_ebnf; used when scoring a stored dataset record
    without replaying its generation.  Raises ValueError unless ``text`` is
    exactly what render_ebnf prints for the rebuilt spec, so a record whose
    productions were edited or are stale is rejected rather than scored
    under another grammar.
    """
    terminals: dict[TerminalRole, str] = {}
    for line in text.splitlines():
        m = _TERMINAL_LINE_RE.match(line.strip())
        if m and m.group(1) in _ROLE_NAMES:
            terminals[TerminalRole(m.group(1))] = m.group(2)
    g = GrammarSpec(style=style, mode=mode, terminals=terminals)
    if render_ebnf(g) != text:
        raise ValueError(f"not the rendered {style.value} grammar text")
    return g


def _draw_alien(rng: random.Random, taken: set[str]) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        token = "v_" + "".join(
            letters[rng.randrange(26)] for _ in range(4)
        )
        if token not in taken:
            return token
