"""Deterministic grid-world semantics.

A robot lives on an unbounded integer grid with a facing and an inventory
multiset, held as one count per item kind.  Programs execute under a step
budget where every primitive action costs exactly one step (a Move of n
cells is still one step), loop counts are evaluated once on entry, and
conditionals read the current inventory.

``exec_program`` is the one interpreter: a tree walker that applies the
iterations of a loop in closed form once they stop changing which item
kinds are held.  Neither it nor a state ever holds one entry per copy, so
their cost follows the program and the kinds held, not the grabs.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from gridlang.ast import (
    ActionStmt,
    Action,
    ArithExpr,
    ArithOp,
    BinaryArith,
    BinaryBool,
    Block,
    BoolExpr,
    BoolOp,
    Grab,
    Holding,
    If,
    ITEM_VOCAB,
    Literal,
    Loop,
    Move,
    MoveDir,
    Not,
    Program,
    Turn,
    TurnDir,
)

__all__ = [
    "Facing",
    "RobotState",
    "START_STATE",
    "DEFAULT_BUDGET",
    "Final",
    "BudgetExceeded",
    "eval_arith",
    "exec_program",
    "step_bound",
]


class Facing(enum.Enum):
    N = "N"
    E = "E"
    S = "S"
    W = "W"


# clockwise, so a right turn adds one to the index
_FACINGS = (Facing.N, Facing.E, Facing.S, Facing.W)
_DELTA = ((0, 1), (1, 0), (0, -1), (-1, 0))

DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class RobotState:
    """Position, facing, and an inventory multiset.

    The inventory is a tuple of ``(item, count)`` pairs, one per held kind
    (so at most 30), each count an int of at least 1, sorted by name so
    that ``==`` is multiset equality regardless of grab order.  Its size
    follows the kinds held, not the copies.
    """

    x: int
    y: int
    facing: Facing
    inventory: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if type(self.x) is not int or type(self.y) is not int:
            raise ValueError(f"coordinates must be ints, got x={self.x!r}, "
                             f"y={self.y!r}")
        ordered = tuple(sorted(self.inventory, key=_pair_item))
        for item, count in ordered:
            if type(count) is not int or count < 1:
                raise ValueError(f"count of {item} must be an int "
                                 f">= 1, got {count!r}")
        if len({item for item, _ in ordered}) < len(ordered):
            raise ValueError("an item kind is listed twice in the inventory")
        object.__setattr__(self, "inventory", ordered)

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "facing": self.facing.value,
            "inventory": dict(self.inventory),
        }

    @staticmethod
    def from_dict(data: dict) -> RobotState:
        """Inverse of ``to_dict``.  Also reads the older list form, one
        entry per copy (``["key", "key"]``), into the same state."""
        if not isinstance(data, dict):
            raise ValueError(f"state is not an object: {data!r}")
        extra = set(data) - {"x", "y", "facing", "inventory"}
        if extra:
            raise ValueError(f"unknown state field {sorted(extra)[0]!r}")
        try:
            held = data["inventory"]
            if isinstance(held, list):
                held = Counter(map(_item, held)).items()
            elif isinstance(held, dict):
                held = held.items()
            else:
                raise ValueError(
                    f"inventory must be an object or a list, got {held!r}")
            return RobotState(
                x=data["x"],
                y=data["y"],
                facing=Facing(data["facing"]),
                inventory=tuple(held),
            )
        except KeyError as exc:
            raise ValueError(f"state missing field {exc.args[0]!r}") from exc


def _pair_item(pair) -> str:
    if type(pair) is tuple and len(pair) == 2:
        return _item(pair[0])
    raise ValueError(f"not an (item, count) pair: {pair!r}")


_ITEMS = frozenset(ITEM_VOCAB)


def _item(text) -> str:
    """The one check that a value is an item name; the type test comes
    first, so an unhashable value is refused with ValueError too."""
    if type(text) is str and text in _ITEMS:
        return text
    raise ValueError(f"not an item: {text!r}")


START_STATE = RobotState(0, 0, Facing.N)


@dataclass(frozen=True)
class Final:
    state: RobotState
    steps_used: int


@dataclass(frozen=True)
class BudgetExceeded:
    pass


def eval_arith(expr: ArithExpr) -> int:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryArith):
        left, right = eval_arith(expr.left), eval_arith(expr.right)
        return left + right if expr.op is ArithOp.ADD else left * right
    raise TypeError(f"not an arithmetic expression: {expr!r}")


def _holds(cond: BoolExpr, inventory: Counter) -> bool:
    if isinstance(cond, Holding):
        return cond.item in inventory
    if isinstance(cond, Not):
        return not _holds(cond.inner, inventory)
    if isinstance(cond, BinaryBool):
        left = _holds(cond.left, inventory)
        if cond.op is BoolOp.AND:
            return left and _holds(cond.right, inventory)
        return left or _holds(cond.right, inventory)
    raise TypeError(f"not a condition: {cond!r}")


def _rotate(dx: int, dy: int, quarter_turns: int) -> tuple[int, int]:
    """A displacement as seen after that many right turns."""
    for _ in range(quarter_turns):
        dx, dy = dy, -dx
    return dx, dy


class _BudgetStop(Exception):
    pass


class _Machine:
    """Registers of one run.

    The inventory counts copies per held kind, so holding-checks and the
    loop summary never touch one entry per copy.  Facing is an index into
    ``_FACINGS``; a right turn adds one.
    """

    __slots__ = ("x", "y", "facing", "inventory", "steps", "budget")

    def __init__(self, state: RobotState, budget: int) -> None:
        self.x = state.x
        self.y = state.y
        self.facing = _FACINGS.index(state.facing)
        self.inventory = Counter(dict(state.inventory))
        self.steps = 0
        self.budget = budget

    def charge(self, steps: int) -> None:
        self.steps += steps
        if self.steps > self.budget:
            raise _BudgetStop

    def run(self, block: Block) -> None:
        for stmt in block:
            if isinstance(stmt, ActionStmt):
                self.act(stmt.action)
            elif isinstance(stmt, Loop):
                self.loop(eval_arith(stmt.count), stmt.body)
            elif isinstance(stmt, If):
                if _holds(stmt.cond, self.inventory):
                    self.run(stmt.then)
                elif stmt.orelse is not None:
                    self.run(stmt.orelse)
            else:
                raise TypeError(f"not a statement: {stmt!r}")

    def act(self, action: Action) -> None:
        self.charge(1)
        if isinstance(action, Move):
            n = eval_arith(action.steps)
            if action.dir is MoveDir.BACKWARD:
                n = -n
            dx, dy = _DELTA[self.facing]
            self.x += dx * n
            self.y += dy * n
        elif isinstance(action, Turn):
            turn = 1 if action.dir is TurnDir.RIGHT else 3
            self.facing = (self.facing + turn) % 4
        elif isinstance(action, Grab):
            self.inventory[action.item] += 1
        else:
            raise TypeError(f"not an action: {action!r}")

    def loop(self, count: int, body: Block) -> None:
        # run iterations until one adds no new kind; that one is stable
        while count:
            count -= 1
            x, y, facing, steps = self.x, self.y, self.facing, self.steps
            before = dict(self.inventory)
            self.run(body)
            if len(self.inventory) == len(before):
                break
        if not count:
            return
        # the remaining iterations repeat the stable one, each turned by its
        # rotation; steps are charged first, so counts stay within budget
        self.charge(count * (self.steps - steps))
        for item, held in before.items():
            self.inventory[item] += count * (self.inventory[item] - held)
        turn = (self.facing - facing) % 4
        dx, dy = self.x - x, self.y - y
        if turn == 0:
            self.x += count * dx
            self.y += count * dy
            return
        # iteration j after the stable one moves by dx, dy turned j * turn
        # times; any four consecutive such moves cancel
        for _ in range(count % 4):
            dx, dy = _rotate(dx, dy, turn)
            self.x += dx
            self.y += dy
        self.facing = (self.facing + count * turn) % 4


def exec_program(
    program: Program,
    state: RobotState = START_STATE,
    budget: int = DEFAULT_BUDGET,
) -> Final | BudgetExceeded:
    """Run a program to completion or until the step budget is exhausted.

    Returns ``BudgetExceeded`` exactly when running every iteration would
    take more than ``budget`` steps.  Loops are not run to the end: once an
    iteration adds no new item kind, every later one takes the same path
    (conditions read only which kinds are held, and kinds are never lost)
    and repeats that iteration's rotation, displacement relative to its
    starting facing, grabs and steps.  The remaining iterations then apply
    in closed form, with the budget checked before any count grows, so
    cost follows program size and the number of kinds rather than the
    steps taken.  The final state holds one count per kind, so memory does
    not grow with the number of grabs either.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    machine = _Machine(state, budget)
    try:
        machine.run(program.body)
    except _BudgetStop:
        return BudgetExceeded()
    return Final(
        RobotState(machine.x, machine.y, _FACINGS[machine.facing],
                   tuple(machine.inventory.items())),
        machine.steps,
    )


def step_bound(program: Program, cap: int = DEFAULT_BUDGET) -> int:
    """Static upper bound on steps used, saturating at ``cap + 1``.

    Loop counts are state-free, so the bound is exact for programs without
    conditionals; If contributes the costlier branch.  Used by the generator
    to reject over-budget ground truth without simulating it.
    """
    return _bound_block(program.body, cap + 1)


def _bound_block(block: Block, sat: int) -> int:
    total = 0
    for stmt in block:
        total += _bound_stmt(stmt, sat)
        if total >= sat:
            return sat
    return total


def _bound_stmt(stmt, sat: int) -> int:
    if isinstance(stmt, ActionStmt):
        return 1
    if isinstance(stmt, Loop):
        inner = _bound_block(stmt.body, sat)
        if inner == 0:
            return 0
        return min(sat, eval_arith(stmt.count) * inner)
    if isinstance(stmt, If):
        then = _bound_block(stmt.then, sat)
        orelse = _bound_block(stmt.orelse, sat) if stmt.orelse else 0
        return max(then, orelse)
    raise TypeError(f"not a statement: {stmt!r}")
