"""AST node types for robot grid-world programs.

Programs are trees of statements (actions, counted loops, conditionals) over
two expression sorts: integer arithmetic (loop and move counts) and boolean
conditions (inventory predicates).  Nodes are immutable dataclasses; trees
compare structurally with ``==``, and keep no record of their spelling, so
equal trees render the same text in every form.  An item is its name, a
plain string from ``ITEM_VOCAB``.

A canonical single-line text form (``canon_serialize`` / ``canon_parse``)
exists so gold trees can be stored in line-delimited datasets without
depending on any surface grammar.  Its productions live in ``grammar`` beside
the three styles', and ``codec`` compiles its parser and layout from them;
these entry points only call into ``codec``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "ArithOp",
    "BoolOp",
    "MoveDir",
    "TurnDir",
    "ITEM_BASES",
    "ITEM_VOCAB",
    "Literal",
    "BinaryArith",
    "ArithExpr",
    "Holding",
    "Not",
    "BinaryBool",
    "BoolExpr",
    "Move",
    "Turn",
    "Grab",
    "Action",
    "ActionStmt",
    "Loop",
    "If",
    "Stmt",
    "Block",
    "Program",
    "control_depth",
    "expr_depth",
    "canon_serialize",
    "canon_parse",
    "MAX_NESTING",
]

# Deepest bracket nesting that the surface and canonical parsers accept;
# gold programs at D = 20 reach about 23 surface and 45 canonical levels.
MAX_NESTING = 100


class ArithOp(enum.Enum):
    ADD = "add"
    MUL = "mul"


class BoolOp(enum.Enum):
    AND = "and"
    OR = "or"


class MoveDir(enum.Enum):
    FORWARD = "F"
    BACKWARD = "B"


class TurnDir(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


ITEM_BASES = ("item", "key", "box", "ball", "cube")

# The 30 inventory item names, ``item`` to ``cube_4``.
ITEM_VOCAB = tuple(base + suffix for base in ITEM_BASES
                   for suffix in ("", "_0", "_1", "_2", "_3", "_4"))


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """Integer literal.

    The sampler only emits values in [0, 5], but any non-negative value is
    representable: parsed model output may contain pre-evaluated counts such
    as 19, and those must round-trip through the codec and interpreter.
    """

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("negative literals are not representable")


@dataclass(frozen=True)
class BinaryArith:
    op: ArithOp
    left: ArithExpr
    right: ArithExpr


ArithExpr = Literal | BinaryArith


@dataclass(frozen=True)
class Holding:
    """True iff the inventory holds at least one copy of the item."""

    item: str


@dataclass(frozen=True)
class Not:
    inner: BoolExpr


@dataclass(frozen=True)
class BinaryBool:
    op: BoolOp
    left: BoolExpr
    right: BoolExpr


BoolExpr = Holding | Not | BinaryBool


# --- actions and statements ------------------------------------------------


@dataclass(frozen=True)
class Move:
    """Move ``steps`` cells along (or against) the current facing.  A
    count the text omits parses as ``Literal(1)`` and renders as ``1``."""

    dir: MoveDir
    steps: ArithExpr


@dataclass(frozen=True)
class Turn:
    dir: TurnDir


@dataclass(frozen=True)
class Grab:
    item: str


Action = Move | Turn | Grab


@dataclass(frozen=True)
class ActionStmt:
    action: Action


@dataclass(frozen=True)
class Loop:
    """Execute ``body`` a fixed number of times; count evaluated once."""

    count: ArithExpr
    body: Block


@dataclass(frozen=True)
class If:
    cond: BoolExpr
    then: Block
    orelse: Block | None = None


Stmt = ActionStmt | Loop | If

# Ordered statement sequence.  The sampler always produces non-empty blocks;
# emptiness is representable because parsed model output may contain it.
Block = tuple[Stmt, ...]


@dataclass(frozen=True)
class Program:
    body: Block


# --- structural measures ---------------------------------------------------


def control_depth(node: Program | Stmt) -> int:
    """Maximum nesting of control statements along any root-to-leaf path.

    Actions contribute 0; a Loop or If contributes 1 plus the deepest
    statement in any of its blocks.
    """
    if isinstance(node, Program):
        return _block_depth(node.body)
    if isinstance(node, ActionStmt):
        return 0
    if isinstance(node, Loop):
        return 1 + _block_depth(node.body)
    if isinstance(node, If):
        depth = _block_depth(node.then)
        if node.orelse is not None:
            depth = max(depth, _block_depth(node.orelse))
        return 1 + depth
    raise TypeError(f"not a program or statement: {node!r}")


def _block_depth(block: Block) -> int:
    return max((control_depth(s) for s in block), default=0)


def expr_depth(expr: ArithExpr | BoolExpr) -> int:
    """Node depth of an expression tree; a lone leaf has depth 1."""
    if isinstance(expr, (Literal, Holding)):
        return 1
    if isinstance(expr, Not):
        return 1 + expr_depth(expr.inner)
    if isinstance(expr, (BinaryArith, BinaryBool)):
        return 1 + max(expr_depth(expr.left), expr_depth(expr.right))
    raise TypeError(f"not an expression: {expr!r}")


# --- canonical text form ----------------------------------------------------


def canon_serialize(node: Program) -> str:
    """Render a program as one line of parenthesized prefix text.

    Node tags: prog loop if move turn grab holding not and or add mul int.
    Action statements serialize as their action form directly; Loop and If
    bodies are parenthesized statement lists.  The text follows the
    canonical productions in ``grammar``.
    """
    from gridlang import codec  # codec imports this module

    return codec.render_canonical(node)


def canon_parse(text: str) -> Program:
    """Inverse of canon_serialize.  Raises ``codec.ParseError`` on bad
    input, including parentheses nested deeper than ``MAX_NESTING``, at the
    furthest token the parse reached."""
    from gridlang import codec

    return codec.parse_canonical(text)
