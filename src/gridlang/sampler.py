"""Seeded program sampling with controllable structure.

Instances are drawn by a categorical walk over statement kinds, with one
root-to-leaf control "spine" planted so the program's control depth equals
the requested D exactly (free sampling alone rarely lands on an exact target
depth).  Every embedded expression is sampled to an exact node depth E, and
loop counts draw literals in [0, 5] (a zero count leaves dead code in the
program on purpose).

Ground truth must execute comfortably inside the interpreter budget: a
candidate tree whose static step bound exceeds half the budget is resampled,
up to a fixed attempt limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gridlang.ast import (
    ActionStmt,
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
    Stmt,
    Turn,
    TurnDir,
)
from gridlang.codec import linearize
from gridlang.grammar import GrammarSpec, LexiconMode, Style, build_grammar
from gridlang.seeding import derive_seed
from gridlang.world import DEFAULT_BUDGET, step_bound

__all__ = [
    "GenParams",
    "ResampleLimitError",
    "sample_node",
    "sample_block",
    "sample_expr",
    "sample_cond",
    "generate_instance",
    "RESAMPLE_LIMIT",
]

RESAMPLE_LIMIT = 100

LITERAL_MAX = 5  # sampled literals lie in [0, LITERAL_MAX]


@dataclass(frozen=True)
class GenParams:
    """Generation dials.

    node_weights orders (action, loop, if).  The default is deliberately
    action-heavy: equal weights make free growth supercritical (expected
    branching 5/3), which at D = 20 yields programs of ~1e5 statements —
    useless as prompts and hopeless for throughput.  The default sits at the
    critical branching point instead, so instance size grows linearly in D.
    """

    max_depth: int = 10
    else_prob: float = 0.5
    expr_depth: int = 2
    max_block: int = 3
    seed: int = 0
    node_weights: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def __post_init__(self) -> None:
        if not 1 <= self.max_depth <= 20:
            raise ValueError(f"max_depth must be in [1, 20], "
                             f"got {self.max_depth}")
        if not 0.0 <= self.else_prob <= 1.0:
            raise ValueError(f"else_prob must be in [0, 1], "
                             f"got {self.else_prob}")
        if self.expr_depth not in (1, 2, 3):
            raise ValueError(f"expr_depth must be 1, 2, or 3, "
                             f"got {self.expr_depth}")
        if self.max_block < 1:
            raise ValueError(f"max_block must be >= 1, got {self.max_block}")
        if len(self.node_weights) != 3 or any(
            w < 0 for w in self.node_weights
        ) or sum(self.node_weights) <= 0:
            raise ValueError("node_weights must be three non-negative "
                             "values with a positive sum")

    def to_dict(self) -> dict:
        return {
            "D": self.max_depth,
            "p": self.else_prob,
            "E": self.expr_depth,
            "B_max": self.max_block,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> GenParams:
        extra = set(data) - {"D", "p", "E", "B_max", "seed"}
        if extra:
            raise ValueError(f"unknown params field {sorted(extra)[0]!r}")
        try:
            return GenParams(
                max_depth=data["D"],
                else_prob=data["p"],
                expr_depth=data["E"],
                max_block=data["B_max"],
                seed=data["seed"],
            )
        except KeyError as exc:
            raise ValueError(
                f"params missing field {exc.args[0]!r}"
            ) from exc


class ResampleLimitError(RuntimeError):
    """All resampling attempts produced over-budget ground truth."""


# Draws go through ``Random._randbelow``, to which ``randrange(n)`` and
# ``randint(a, b)`` reduce once their arguments are checked, so the stream is
# the same as theirs.  The public entry points bind ``rng._randbelow`` and
# ``rng.random`` once and hand them down as ``below`` (``below(n)`` is
# uniform in [0, n), for n >= 1 only) and ``rand``.


def _weighted_index(rand, weights: tuple[float, ...]) -> int:
    r = rand() * sum(weights)
    acc = 0.0
    for idx, w in enumerate(weights):
        acc += w
        if r < acc:
            return idx
    return len(weights) - 1


def sample_expr(params: GenParams, rng: random.Random) -> ArithExpr:
    """Arithmetic expression of node depth exactly params.expr_depth."""
    return _arith_at(params.expr_depth, rng._randbelow)


def _arith_at(depth: int, below) -> ArithExpr:
    if depth == 1:
        return Literal(below(LITERAL_MAX + 1))
    op = ArithOp.ADD if below(2) == 0 else ArithOp.MUL
    full_left = below(2) == 0
    other_depth = 1 + below(depth - 1)
    full = _arith_at(depth - 1, below)
    other = _arith_at(other_depth, below)
    if full_left:
        return BinaryArith(op, full, other)
    return BinaryArith(op, other, full)


def sample_cond(params: GenParams, rng: random.Random) -> BoolExpr:
    """Condition of node depth exactly params.expr_depth."""
    return _cond_at(params.expr_depth, rng._randbelow)


def _cond_at(depth: int, below) -> BoolExpr:
    if depth == 1:
        return Holding(ITEM_VOCAB[below(len(ITEM_VOCAB))])
    kind = below(3)
    if kind == 0:
        return Not(_cond_at(depth - 1, below))
    op = BoolOp.AND if kind == 1 else BoolOp.OR
    full_left = below(2) == 0
    other_depth = 1 + below(depth - 1)
    full = _cond_at(depth - 1, below)
    other = _cond_at(other_depth, below)
    if full_left:
        return BinaryBool(op, full, other)
    return BinaryBool(op, other, full)


def _action(params: GenParams, below) -> ActionStmt:
    kind = below(3)
    if kind == 0:
        direction = (MoveDir.FORWARD, MoveDir.BACKWARD)[below(2)]
        return ActionStmt(Move(direction, _arith_at(params.expr_depth, below)))
    if kind == 1:
        return ActionStmt(Turn((TurnDir.LEFT, TurnDir.RIGHT)[below(2)]))
    return ActionStmt(Grab(ITEM_VOCAB[below(len(ITEM_VOCAB))]))


def sample_node(d: int, params: GenParams, rng: random.Random) -> Stmt:
    """Categorical statement draw at nesting depth d; actions at the cap."""
    return _node(d, params, rng._randbelow, rng.random)


def _node(d: int, params: GenParams, below, rand) -> Stmt:
    if d >= params.max_depth:
        return _action(params, below)
    kind = _weighted_index(rand, params.node_weights)
    if kind == 0:
        return _action(params, below)
    if kind == 1:
        return Loop(_arith_at(params.expr_depth, below),
                    _block(d + 1, params, below, rand))
    cond = _cond_at(params.expr_depth, below)
    then = _block(d + 1, params, below, rand)
    orelse = None
    if rand() < params.else_prob:
        orelse = _block(d + 1, params, below, rand)
    return If(cond, then, orelse)


def sample_block(d: int, params: GenParams, rng: random.Random) -> Block:
    """Uniform(1, max_block) statements, each drawn by sample_node."""
    return _block(d, params, rng._randbelow, rng.random)


def _block(d: int, params: GenParams, below, rand) -> Block:
    n = 1 + below(params.max_block)
    return tuple([_node(d, params, below, rand) for _ in range(n)])


def _spine_kind_is_loop(params: GenParams, below, rand) -> bool:
    loop_w, if_w = params.node_weights[1], params.node_weights[2]
    if loop_w + if_w <= 0:
        return below(2) == 0
    return _weighted_index(rand, (loop_w, if_w)) == 0


def _spine_node(d: int, params: GenParams, below, rand) -> Stmt:
    # control node at depth d < D whose body carries the spine downward
    if _spine_kind_is_loop(params, below, rand):
        return Loop(_arith_at(params.expr_depth, below),
                    _spine_block(d + 1, params, below, rand))
    cond = _cond_at(params.expr_depth, below)
    then = _spine_block(d + 1, params, below, rand)
    orelse = None
    if rand() < params.else_prob:
        orelse = _block(d + 1, params, below, rand)
    return If(cond, then, orelse)


def _spine_block(d: int, params: GenParams, below, rand) -> Block:
    n = 1 + below(params.max_block)
    pos = below(n)
    stmts = []
    for j in range(n):
        if j != pos:
            stmts.append(_node(d, params, below, rand))
        elif d < params.max_depth:
            stmts.append(_spine_node(d, params, below, rand))
        else:
            # spine bottoms out in a leaf action
            stmts.append(_action(params, below))
    return tuple(stmts)


def generate_instance(
    style: Style,
    mode: LexiconMode,
    params: GenParams,
    budget: int = DEFAULT_BUDGET,
) -> tuple[GrammarSpec, str, Program]:
    """Draw (grammar, code, tree) with control depth exactly params.max_depth.

    The tree is resampled (fresh derived seed per attempt) while its static
    step bound exceeds half the execution budget, so stored ground truth
    always executes.  Raises ResampleLimitError after RESAMPLE_LIMIT misses.
    """
    g = build_grammar(style, mode, derive_seed(params.seed, "lexicon"))
    cap = budget // 2
    for attempt in range(RESAMPLE_LIMIT):
        rng = random.Random(derive_seed(params.seed, "tree", attempt))
        tree = Program(_spine_block(0, params, rng._randbelow,
                                    rng.random))
        if step_bound(tree, cap) <= cap:
            return g, linearize(tree, g), tree
    raise ResampleLimitError(
        f"{RESAMPLE_LIMIT} consecutive samples exceeded half the execution "
        f"budget ({cap} steps) for params {params.to_dict()}"
    )
