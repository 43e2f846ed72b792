"""Seeded program sampling with controllable structure.

Instances are drawn by a categorical walk over statement kinds, with one
root-to-leaf control "spine" planted so the program's control depth equals
the requested D exactly (free sampling alone rarely lands on an exact target
depth).  Every embedded expression is sampled to an exact node depth E, and
loop counts draw literals in [0, 5] (a zero count leaves dead code in the
program on purpose).  The kind weights are fixed, so a tree is a function of
the five dials a dataset record stores: D, p, E, B_max and the seed.

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
    "generate_instance",
    "RESAMPLE_LIMIT",
]

RESAMPLE_LIMIT = 100

LITERAL_MAX = 5  # sampled literals lie in [0, LITERAL_MAX]

# (params record key, GenParams field), in record order
_PARAM_KEYS = (("D", "max_depth"), ("p", "else_prob"), ("E", "expr_depth"),
               ("B_max", "max_block"), ("seed", "seed"))


@dataclass(frozen=True)
class GenParams:
    """Generation dials: exactly the fields a record's ``params`` holds."""

    max_depth: int = 10
    else_prob: float = 0.5
    expr_depth: int = 2
    max_block: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_depth", "expr_depth", "max_block", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, "
                                 f"got {getattr(self, name)!r}")
        if isinstance(self.else_prob, bool) or \
                not isinstance(self.else_prob, (int, float)):
            raise ValueError(f"else_prob must be a number, "
                             f"got {self.else_prob!r}")
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

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _PARAM_KEYS}

    @staticmethod
    def from_dict(data: dict) -> GenParams:
        if not isinstance(data, dict):
            raise ValueError(f"params is not an object: {data!r}")
        extra = set(data) - {key for key, _name in _PARAM_KEYS}
        if extra:
            raise ValueError(f"unknown params field {sorted(extra)[0]!r}")
        try:
            return GenParams(**{name: data[key] for key, name in _PARAM_KEYS})
        except KeyError as exc:
            raise ValueError(
                f"params missing field {exc.args[0]!r}"
            ) from exc


class ResampleLimitError(RuntimeError):
    """All resampling attempts produced over-budget ground truth."""


# Draws go through ``Random._randbelow``, to which ``randrange(n)`` and
# ``randint(a, b)`` reduce once their arguments are checked, so the stream is
# the same as theirs.  A ``_Plan`` binds ``rng._randbelow`` as ``below``
# (``below(n)`` is uniform in [0, n), for n >= 1 only), ``rng.random`` as
# ``rand`` and the dials once per generator, and the draw functions hand it
# down.  Two rules keep a draw cheap without moving the stream:
# - Leaves come from shared tuples built at import, indexed by the same
#   ``below`` draw that picked them: literals, ``Holding`` conditions and
#   the turn and grab statements.  Nodes are immutable and compare by
#   value, so sharing one is invisible to every reader of a tree.
# - A statement kind is picked by comparing ``rand() * sum(weights)`` with
#   cumulative thresholds summed once at import, in the order a loop over
#   the weights would add them, so every float and every branch is that loop's.

# Statement kind weights (action, loop, if).  They are deliberately
# action-heavy: equal weights make free growth supercritical (expected
# branching 5/3), which at D = 20 yields programs of ~1e5 statements,
# useless as prompts and hopeless for throughput.  These sit at the critical
# branching point instead, so instance size grows linearly in D.
_W_ACTION, _W_LOOP, _W_IF = 0.7, 0.15, 0.15
_TOTAL = sum((_W_ACTION, _W_LOOP, _W_IF))
_TO_ACTION = 0.0 + _W_ACTION
_TO_LOOP = _TO_ACTION + _W_LOOP
# the spine draws loop or if alone, by their weights
_SPINE_TOTAL = sum((_W_LOOP, _W_IF))
_SPINE_TO_LOOP = 0.0 + _W_LOOP

_LITERALS = tuple(Literal(value) for value in range(LITERAL_MAX + 1))
_HOLDINGS = tuple(Holding(item) for item in ITEM_VOCAB)
_MOVE_DIRS = (MoveDir.FORWARD, MoveDir.BACKWARD)
_TURNS = tuple(ActionStmt(Turn(d)) for d in (TurnDir.LEFT, TurnDir.RIGHT))
_GRABS = tuple(ActionStmt(Grab(item)) for item in ITEM_VOCAB)


class _Plan:
    """One generator's draw methods and the dials."""

    __slots__ = ("below", "rand", "max_depth", "expr_depth", "max_block",
                 "else_prob")

    def __init__(self, params: GenParams, rng: random.Random) -> None:
        self.below, self.rand = rng._randbelow, rng.random
        self.max_depth, self.expr_depth = params.max_depth, params.expr_depth
        self.max_block, self.else_prob = params.max_block, params.else_prob


def _arith_at(depth: int, below) -> ArithExpr:
    if depth == 1:
        return _LITERALS[below(LITERAL_MAX + 1)]
    op = ArithOp.ADD if below(2) == 0 else ArithOp.MUL
    full_left = below(2) == 0
    other_depth = 1 + below(depth - 1)
    full = _arith_at(depth - 1, below)
    other = _arith_at(other_depth, below)
    if full_left:
        return BinaryArith(op, full, other)
    return BinaryArith(op, other, full)


def _cond_at(depth: int, below) -> BoolExpr:
    if depth == 1:
        return _HOLDINGS[below(len(_HOLDINGS))]
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


def _action(plan: _Plan) -> ActionStmt:
    below = plan.below
    kind = below(3)
    if kind == 0:
        direction = _MOVE_DIRS[below(2)]
        return ActionStmt(Move(direction, _arith_at(plan.expr_depth, below)))
    if kind == 1:
        return _TURNS[below(2)]
    return _GRABS[below(len(_GRABS))]


def _node(d: int, plan: _Plan) -> Stmt:
    if d >= plan.max_depth:
        return _action(plan)
    r = plan.rand() * _TOTAL
    if r < _TO_ACTION:
        return _action(plan)
    if r < _TO_LOOP:
        return Loop(_arith_at(plan.expr_depth, plan.below),
                    _block(d + 1, plan))
    return _if(d, plan, _block)


def _if(d: int, plan: _Plan, then_block) -> If:
    # the then-block is drawn by ``then_block``: a free one or the spine's
    cond = _cond_at(plan.expr_depth, plan.below)
    then = then_block(d + 1, plan)
    orelse = None
    if plan.rand() < plan.else_prob:
        orelse = _block(d + 1, plan)
    return If(cond, then, orelse)


def _block(d: int, plan: _Plan) -> Block:
    n = 1 + plan.below(plan.max_block)
    return tuple([_node(d, plan) for _ in range(n)])


def _spine_node(d: int, plan: _Plan) -> Stmt:
    # control node at depth d < D whose body carries the spine downward
    if plan.rand() * _SPINE_TOTAL < _SPINE_TO_LOOP:
        return Loop(_arith_at(plan.expr_depth, plan.below),
                    _spine_block(d + 1, plan))
    return _if(d, plan, _spine_block)


def _spine_block(d: int, plan: _Plan) -> Block:
    n = 1 + plan.below(plan.max_block)
    pos = plan.below(n)
    stmts = []
    for j in range(n):
        if j != pos:
            stmts.append(_node(d, plan))
        elif d < plan.max_depth:
            stmts.append(_spine_node(d, plan))
        else:
            # spine bottoms out in a leaf action
            stmts.append(_action(plan))
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
        tree = Program(_spine_block(0, _Plan(params, rng)))
        if step_bound(tree, cap) <= cap:
            return g, linearize(tree, g), tree
    raise ResampleLimitError(
        f"{RESAMPLE_LIMIT} consecutive samples exceeded half the execution "
        f"budget ({cap} steps) for params {params.to_dict()}"
    )
