"""Shared test helpers: pinned lexicons and independent tree walkers.

The walkers here deliberately reimplement traversal (iteratively, with an
explicit stack) so tests never validate library code against itself.
"""

from __future__ import annotations

import itertools

from gridlang.ast import (
    ActionStmt,
    ArithOp,
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
