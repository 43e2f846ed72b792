"""AST node types for robot grid-world programs.

Programs are trees of statements (actions, counted loops, conditionals) over
two expression sorts: integer arithmetic (loop and move counts) and boolean
conditions (inventory predicates).  Nodes are immutable dataclasses; trees
compare structurally with ``==``.

A canonical single-line text form (``canon_serialize`` / ``canon_parse``)
exists so gold trees can be stored in line-delimited datasets without
depending on any surface grammar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "ArithOp",
    "BoolOp",
    "MoveDir",
    "TurnDir",
    "ItemToken",
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
    "CanonParseError",
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


@dataclass(frozen=True)
class ItemToken:
    """An inventory item name: one of five bases, optionally suffixed 0-4.

    Rendered ``key`` or ``key_2``.  The full vocabulary has 30 members.
    """

    base: str
    suffix: int | None = None

    def __post_init__(self) -> None:
        if self.base not in ITEM_BASES:
            raise ValueError(f"unknown item base {self.base!r}")
        if self.suffix is not None and not 0 <= self.suffix <= 4:
            raise ValueError(f"item suffix out of range: {self.suffix!r}")

    def render(self) -> str:
        if self.suffix is None:
            return self.base
        return f"{self.base}_{self.suffix}"

    @staticmethod
    def parse(text: str) -> ItemToken:
        base, _, tail = text.partition("_")
        if tail:
            if not (len(tail) == 1 and tail.isdigit()):
                raise ValueError(f"not an item token: {text!r}")
            return ItemToken(base, int(tail))
        return ItemToken(base)


ITEM_VOCAB = tuple(
    ItemToken(base, suffix)
    for base in ITEM_BASES
    for suffix in (None, 0, 1, 2, 3, 4)
)


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

    item: ItemToken


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
    """Move ``steps`` cells along (or against) the current facing.

    ``steps`` is always an explicit expression; surface syntax may omit the
    count, in which case the parser fills in ``Literal(1)`` and sets
    ``steps_omitted`` so the original text can be re-rendered.  The flag is
    excluded from equality: trees differing only in it are the same program.
    """

    dir: MoveDir
    steps: ArithExpr
    steps_omitted: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Turn:
    dir: TurnDir


@dataclass(frozen=True)
class Grab:
    item: ItemToken


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


class CanonParseError(ValueError):
    """Raised on malformed canonical AST text; carries the token position."""

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"at token {position}: {message}")
        self.position = position


def canon_serialize(node: Program) -> str:
    """Render a program as one line of parenthesized prefix text.

    Node tags: prog loop if move turn grab holding not and or add mul int.
    Action statements serialize as their action form directly; Loop and If
    bodies are parenthesized statement lists.
    """
    return _canon(node)


def _canon(node) -> str:
    if isinstance(node, Program):
        return "(prog " + " ".join(_canon(s) for s in node.body) + ")"
    if isinstance(node, ActionStmt):
        return _canon(node.action)
    if isinstance(node, Loop):
        return f"(loop {_canon(node.count)} {_canon_block(node.body)})"
    if isinstance(node, If):
        text = f"(if {_canon(node.cond)} {_canon_block(node.then)}"
        if node.orelse is not None:
            text += f" {_canon_block(node.orelse)}"
        return text + ")"
    if isinstance(node, Move):
        if node.steps_omitted:
            return f"(move {node.dir.value})"
        return f"(move {node.dir.value} {_canon(node.steps)})"
    if isinstance(node, Turn):
        return f"(turn {node.dir.value})"
    if isinstance(node, Grab):
        return f"(grab {node.item.render()})"
    if isinstance(node, Literal):
        return f"(int {node.value})"
    if isinstance(node, BinaryArith):
        return f"({node.op.value} {_canon(node.left)} {_canon(node.right)})"
    if isinstance(node, Holding):
        return f"(holding {node.item.render()})"
    if isinstance(node, Not):
        return f"(not {_canon(node.inner)})"
    if isinstance(node, BinaryBool):
        return f"({node.op.value} {_canon(node.left)} {_canon(node.right)})"
    raise TypeError(f"cannot serialize {node!r}")


def _canon_block(block: Block) -> str:
    return "(" + " ".join(_canon(s) for s in block) + ")"


def canon_parse(text: str) -> Program:
    """Inverse of canon_serialize.  Raises CanonParseError on bad input,
    including parentheses nested deeper than ``MAX_NESTING``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if tokens.count("(") > MAX_NESTING:
        depth = 0
        for position, tok in enumerate(tokens):
            depth += (tok == "(") - (tok == ")")
            if depth > MAX_NESTING:
                raise CanonParseError(position, f"more than {MAX_NESTING} "
                                      "nested parentheses")
    parser = _CanonParser(tokens)
    program = parser.program()
    if parser.pos != len(tokens):
        raise CanonParseError(parser.pos, "trailing tokens after program")
    return program


class _CanonParser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str):
        raise CanonParseError(self.pos, message)

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}")

    def program(self) -> Program:
        self.expect("(")
        self.expect("prog")
        body = []
        while self.peek() != ")":
            body.append(self.stmt())
        self.expect(")")
        if not body:
            self.fail("empty program body")
        return Program(tuple(body))

    def stmt(self) -> Stmt:
        self.expect("(")
        head = self.take()
        if head == "loop":
            count = self.arith()
            body = self.block()
            self.expect(")")
            return Loop(count, body)
        if head == "if":
            cond = self.bool_expr()
            then = self.block()
            orelse = None
            if self.peek() == "(":
                orelse = self.block()
            self.expect(")")
            return If(cond, then, orelse)
        if head == "move":
            dir_ = self.move_dir()
            if self.peek() == ")":
                self.pos += 1
                return ActionStmt(Move(dir_, Literal(1), steps_omitted=True))
            steps = self.arith()
            self.expect(")")
            return ActionStmt(Move(dir_, steps))
        if head == "turn":
            tok = self.take()
            if tok not in ("L", "R"):
                self.fail(f"expected turn direction, found {tok!r}")
            self.expect(")")
            return ActionStmt(Turn(TurnDir(tok)))
        if head == "grab":
            item = self.item()
            self.expect(")")
            return ActionStmt(Grab(item))
        self.fail(f"expected statement tag, found {head!r}")

    def block(self) -> Block:
        self.expect("(")
        stmts = []
        while self.peek() != ")":
            stmts.append(self.stmt())
        self.expect(")")
        return tuple(stmts)

    def move_dir(self) -> MoveDir:
        tok = self.take()
        if tok not in ("F", "B"):
            self.fail(f"expected move direction, found {tok!r}")
        return MoveDir(tok)

    def item(self) -> ItemToken:
        tok = self.take()
        try:
            return ItemToken.parse(tok)
        except ValueError:
            self.pos -= 1
            self.fail(f"expected item token, found {tok!r}")

    def arith(self) -> ArithExpr:
        self.expect("(")
        head = self.take()
        if head == "int":
            tok = self.take()
            if not (tok.isascii() and tok.isdigit()):
                self.fail(f"expected integer, found {tok!r}")
            self.expect(")")
            return Literal(int(tok))
        if head in ("add", "mul"):
            left = self.arith()
            right = self.arith()
            self.expect(")")
            return BinaryArith(ArithOp(head), left, right)
        self.fail(f"expected arithmetic tag, found {head!r}")

    def bool_expr(self) -> BoolExpr:
        self.expect("(")
        head = self.take()
        if head == "holding":
            item = self.item()
            self.expect(")")
            return Holding(item)
        if head == "not":
            inner = self.bool_expr()
            self.expect(")")
            return Not(inner)
        if head in ("and", "or"):
            left = self.bool_expr()
            right = self.bool_expr()
            self.expect(")")
            return BinaryBool(BoolOp(head), left, right)
        self.fail(f"expected condition tag, found {head!r}")
