"""Shared test helpers: pinned lexicons, independent tree walkers, and a
random derivation generator that reads the rendered EBNF text.

The walkers here deliberately reimplement traversal (iteratively, with an
explicit stack), and the generator reads the grammar text with its own
reader, so tests never validate library code against itself.
"""

from __future__ import annotations

import itertools
import re

from gridlang.ast import (
    ActionStmt,
    ArithOp,
    BinaryArith,
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
    TurnDir,
)
from gridlang.codec import linearize
from gridlang.grammar import (
    GrammarSpec,
    LexiconMode,
    NATURAL_POOLS,
    Style,
    TerminalRole as R,
    used_roles,
)
from gridlang.world import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    Facing,
    Final,
    RobotState,
    START_STATE,
)

ALL_COMBOS = tuple(itertools.product(Style, LexiconMode))

_PUNCT_DEFAULTS = {R.LBR: "{", R.RBR: "}", R.PAR_L: "(", R.PAR_R: ")",
                   R.SEMI: ";"}


def fixed_terminals(style: Style, **overrides: str) -> dict:
    """First pool option per role, punctuation structural; overridable."""
    terminals = {}
    for role in used_roles(style):
        if role in _PUNCT_DEFAULTS:
            terminals[role] = _PUNCT_DEFAULTS[role]
        else:
            terminals[role] = NATURAL_POOLS[role][0]
    for name, token in overrides.items():
        terminals[R[name]] = token
    return terminals


def fixed_grammar(style: Style = Style.BLOCK, **overrides: str) -> GrammarSpec:
    return GrammarSpec(style, LexiconMode.NATURAL,
                       fixed_terminals(style, **overrides), seed=0)


def iter_statements(program: Program):
    """Every statement in the tree, iteratively (independent oracle)."""
    stack = list(program.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, Loop):
            stack.extend(stmt.body)
        elif isinstance(stmt, If):
            stack.extend(stmt.then)
            if stmt.orelse is not None:
                stack.extend(stmt.orelse)


def iter_expressions(program: Program):
    """Every arithmetic expression and condition embedded in the tree."""
    for stmt in iter_statements(program):
        if isinstance(stmt, ActionStmt):
            if isinstance(stmt.action, Move):
                yield stmt.action.steps
        elif isinstance(stmt, Loop):
            yield stmt.count
        elif isinstance(stmt, If):
            yield stmt.cond


def oracle_control_depth(program: Program) -> int:
    """Max control nesting, computed by explicit depth-tagged traversal."""
    best = 0
    stack = [(stmt, 1) for stmt in program.body]
    while stack:
        stmt, depth = stack.pop()
        if isinstance(stmt, Loop):
            best = max(best, depth)
            stack.extend((s, depth + 1) for s in stmt.body)
        elif isinstance(stmt, If):
            best = max(best, depth)
            stack.extend((s, depth + 1) for s in stmt.then)
            if stmt.orelse is not None:
                stack.extend((s, depth + 1) for s in stmt.orelse)
    return best


_CLOCKWISE = [Facing.N, Facing.E, Facing.S, Facing.W]
_HEADING = {Facing.N: (0, 1), Facing.E: (1, 0), Facing.S: (0, -1),
            Facing.W: (-1, 0)}


def _oracle_value(expr) -> int:
    if isinstance(expr, Literal):
        return expr.value
    left, right = _oracle_value(expr.left), _oracle_value(expr.right)
    return left + right if expr.op is ArithOp.ADD else left * right


def _oracle_truth(cond, held: list) -> bool:
    if isinstance(cond, Holding):
        return cond.item in held
    if isinstance(cond, Not):
        return not _oracle_truth(cond.inner, held)
    left = _oracle_truth(cond.left, held)
    right = _oracle_truth(cond.right, held)
    return (left and right) if cond.op is BoolOp.AND else (left or right)


def oracle_exec(program: Program, state: RobotState = START_STATE,
                budget: int = DEFAULT_BUDGET):
    """Naive interpreter: every iteration, one action at a time.

    Runs from an explicit stack of statement iterators and keeps one
    inventory entry per copy, sharing no code with ``exec_program``; its
    cost grows with the steps taken, so use it on small programs only.
    """
    x, y, facing = state.x, state.y, state.facing
    held = list(state.inventory)
    steps = 0
    stack = [iter(program.body)]
    while stack:
        stmt = next(stack[-1], None)
        if stmt is None:
            stack.pop()
        elif isinstance(stmt, Loop):
            count = _oracle_value(stmt.count)  # evaluated once, on entry
            stack.append(itertools.chain.from_iterable(
                itertools.repeat(stmt.body, count)))
        elif isinstance(stmt, If):
            taken = _oracle_truth(stmt.cond, held)
            stack.append(iter(stmt.then if taken else stmt.orelse or ()))
        else:
            steps += 1
            if steps > budget:
                return BudgetExceeded()
            action = stmt.action
            if isinstance(action, Move):
                n = _oracle_value(action.steps)
                if action.dir is MoveDir.BACKWARD:
                    n = -n
                dx, dy = _HEADING[facing]
                x, y = x + dx * n, y + dy * n
            elif isinstance(action, Grab):
                held.append(action.item)
            else:
                turn = 1 if action.dir is TurnDir.RIGHT else -1
                facing = _CLOCKWISE[(_CLOCKWISE.index(facing) + turn) % 4]
    return Final(RobotState(x, y, facing, tuple(held)), steps)


# --- derivations from the rendered grammar text ------------------------------

_EBNF_TOKEN_RE = re.compile(r'"[^"]*"|/[^/]*/|[()|]|[?*+]|[A-Za-z_]+')


def _read_ebnf(text: str) -> tuple[dict, dict, dict]:
    """(rules, tokens, patterns) from ``render_ebnf`` text.

    rules maps a name to a list of alternatives, each a list of
    (node, quantifier) pairs where node is a name or a nested list of
    alternatives; tokens maps role names to their bound text, patterns
    maps class names to their regex source.
    """
    rules, tokens, patterns = {}, {}, {}
    for line in text.splitlines():
        name, body = line.split(": ", 1)
        if body.startswith('"'):
            tokens[name] = body[1:-1]
        elif body.startswith("/"):
            patterns[name] = body[1:-1]
        else:
            words = _EBNF_TOKEN_RE.findall(body)
            rules[name], rest = _read_choice(words)
            assert not rest, line
    return rules, tokens, patterns


def _read_choice(words: list) -> tuple[list, list]:
    alternatives, current = [], []
    while words and words[0] != ")":
        word, words = words[0], words[1:]
        if word == "|":
            alternatives.append(current)
            current = []
            continue
        if word == "(":
            node, words = _read_choice(words)
            words = words[1:]  # the closing parenthesis
        else:
            node = word
        quant = ""
        if words and words[0] in ("?", "*", "+"):
            quant, words = words[0], words[1:]
        current.append((node, quant))
    alternatives.append(current)
    return alternatives, words


def derive(text: str, choose, literal, max_depth: int = 4) -> str:
    """One random sentence of the grammar printed in ``text``.

    ``choose(n)`` picks an index below n and ``literal(pattern)`` draws a
    string matching a class's regex.  Past ``max_depth`` nested rules the
    expansion takes first alternatives, drops ``?`` items, repeats ``*``
    items zero times and ``+`` items once, which terminates for every style
    (each rule's first alternative is its least nested one).  Tokens are
    joined by a space, a newline or, next to punctuation, nothing.
    """
    rules, tokens, patterns = _read_ebnf(text)
    out: list[str] = []

    def expand(alternatives: list, depth: int) -> None:
        deep = depth > max_depth
        alt = alternatives[0 if deep else choose(len(alternatives))]
        for node, quant in alt:
            if quant == "?":
                count = 0 if deep else choose(2)
            elif quant == "*":
                count = 0 if deep else choose(3)
            elif quant == "+":
                count = 1 if deep else 1 + choose(2)
            else:
                count = 1
            for _ in range(count):
                if isinstance(node, list):
                    expand(node, depth)
                elif node in tokens:
                    out.append(tokens[node])
                elif node in patterns:
                    out.append(literal(patterns[node]))
                else:
                    expand(rules[node], depth + 1)

    expand(rules["start"], 0)
    text = out[0]
    for prev, word in zip(out, out[1:]):
        glue = prev[-1] in "[]{}();+*" or word[0] in "[]{}();+*"
        text += ("", " ", "\n  ")[choose(3) if glue else 1 + choose(2)]
        text += word
    return text


def bracket_depth(text: str) -> int:
    """Deepest nesting of ``([{`` brackets in ``text``."""
    depth = deepest = 0
    for ch in text:
        depth += (ch in "([{") - (ch in ")]}")
        deepest = max(deepest, depth)
    return deepest


def deep_surface(g: GrammarSpec, depth: int) -> str:
    """One move whose count nests additions so that its text under ``g``
    nests exactly ``depth`` brackets."""
    def program(levels: int) -> Program:
        count = Literal(1)
        for _ in range(levels):
            count = BinaryArith(ArithOp.ADD, count, Literal(1))
        return Program((ActionStmt(Move(MoveDir.FORWARD, count)),))

    offset = bracket_depth(linearize(program(0), g))
    text = linearize(program(depth - offset), g)
    assert bracket_depth(text) == depth
    return text
