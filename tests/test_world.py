"""Interpreter semantics: arithmetic, predicates, motion, budget."""

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    ActionStmt,
    ArithOp,
    BinaryArith,
    BinaryBool,
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
from gridlang.sampler import GenParams
from gridlang.world import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    Facing,
    Final,
    RobotState,
    START_STATE,
    eval_arith,
    exec_program,
    step_bound,
)

from conftest import NON_ITEMS, oracle_exec, oracle_sample_block

KEY = "key"
BOX = "box"
BALL = "ball"


def run(program, state=START_STATE, budget=DEFAULT_BUDGET):
    result = exec_program(program, state, budget)
    assert isinstance(result, Final)
    return result.state


def act(action, state):
    """One primitive action, run as a one-statement program."""
    result = exec_program(Program((ActionStmt(action),)), state)
    assert result.steps_used == 1
    return result.state


def holds(cond, state):
    """A condition, read off whether a one-statement If takes its branch."""
    prog = Program((If(cond, (ActionStmt(Turn(TurnDir.LEFT)),)),))
    return exec_program(prog, state).steps_used == 1


class TestArithmetic:
    def test_worked_example_evaluates_to_nineteen(self):
        expr = BinaryArith(ArithOp.ADD,
                           BinaryArith(ArithOp.MUL, Literal(4), Literal(4)),
                           Literal(3))
        assert eval_arith(expr) == 19

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_matches_python_arithmetic(self, a, b, c):
        expr = BinaryArith(ArithOp.MUL,
                           BinaryArith(ArithOp.ADD, Literal(a), Literal(b)),
                           Literal(c))
        assert eval_arith(expr) == (a + b) * c


class TestPredicates:
    def test_truth_table_oracle(self):
        holding_key = Holding(KEY)
        holding_box = Holding(BOX)
        for has_key, has_box in itertools.product((False, True), repeat=2):
            inventory = ()
            inventory += ((KEY, 1),) if has_key else ()
            inventory += ((BOX, 1),) if has_box else ()
            state = RobotState(0, 0, Facing.N, inventory)
            assert holds(holding_key, state) is has_key
            assert holds(Not(holding_key), state) is (not has_key)
            assert holds(
                BinaryBool(BoolOp.AND, holding_key, holding_box), state
            ) is (has_key and has_box)
            assert holds(
                BinaryBool(BoolOp.OR, holding_key, holding_box), state
            ) is (has_key or has_box)

    def test_holding_distinguishes_suffixed_variants(self):
        state = RobotState(0, 0, Facing.N, (("key_2", 1),))
        assert holds(Holding("key_2"), state)
        assert not holds(Holding(KEY), state)


class TestMotion:
    def test_facing_deltas(self):
        cases = {Facing.N: (0, 1), Facing.E: (1, 0),
                 Facing.S: (0, -1), Facing.W: (-1, 0)}
        for facing, (dx, dy) in cases.items():
            state = RobotState(0, 0, facing)
            moved = act(Move(MoveDir.FORWARD, Literal(3)), state)
            assert (moved.x, moved.y) == (3 * dx, 3 * dy)
            back = act(Move(MoveDir.BACKWARD, Literal(2)), state)
            assert (back.x, back.y) == (-2 * dx, -2 * dy)

    def test_turn_cycles_are_identity(self):
        for start in Facing:
            state = RobotState(0, 0, start)
            lefts = rights = state
            for _ in range(4):
                lefts = act(Turn(TurnDir.LEFT), lefts)
                rights = act(Turn(TurnDir.RIGHT), rights)
            assert lefts == state
            assert rights == state
            mixed = act(Turn(TurnDir.RIGHT),
                        act(Turn(TurnDir.LEFT), state))
            assert mixed == state

    def test_left_cycle_order(self):
        facing = Facing.N
        seen = [facing]
        for _ in range(3):
            facing = act(Turn(TurnDir.LEFT),
                         RobotState(0, 0, facing)).facing
            seen.append(facing)
        assert seen == [Facing.N, Facing.W, Facing.S, Facing.E]

    def test_worked_goal_state_witness(self):
        # forward 46 then one left turn lands on (0, 46) facing W
        prog = Program((
            ActionStmt(Move(MoveDir.FORWARD, Literal(46))),
            ActionStmt(Turn(TurnDir.LEFT)),
        ))
        state = run(prog)
        assert (state.x, state.y) == (0, 46)
        assert state.facing is Facing.W
        assert state.inventory == ()

    def test_grab_accumulates_multiset(self):
        prog = Program((
            ActionStmt(Grab(KEY)),
            ActionStmt(Grab(BOX)),
            ActionStmt(Grab(KEY)),
        ))
        state = run(prog)
        assert state.inventory == ((BOX, 1), (KEY, 2))

    def test_inventory_is_order_insensitive(self):
        ab = run(Program((ActionStmt(Grab(KEY)), ActionStmt(Grab(BOX)))))
        ba = run(Program((ActionStmt(Grab(BOX)), ActionStmt(Grab(KEY)))))
        assert ab == ba


class TestControlFlow:
    def test_loop_count_evaluated_once(self):
        # a count of 3 runs the body three times even as state changes
        prog = Program((Loop(Literal(3), (ActionStmt(Grab(KEY)),)),))
        assert run(prog).inventory == ((KEY, 3),)

    def test_zero_count_loop_is_dead_code(self):
        prog = Program((Loop(Literal(0), (ActionStmt(Grab(KEY)),)),))
        assert run(prog) == START_STATE

    def test_else_branch_taken_when_condition_false(self):
        prog = Program((
            If(Holding(KEY),
               (ActionStmt(Grab(BOX)),),
               (ActionStmt(Grab(KEY)),)),
        ))
        assert run(prog).inventory == ((KEY, 1),)
        primed = RobotState(0, 0, Facing.N, ((KEY, 1),))
        assert run(prog, primed).inventory == ((BOX, 1), (KEY, 1))

    def test_missing_else_is_noop(self):
        prog = Program((If(Holding(KEY), (ActionStmt(Grab(BOX)),), None),))
        assert run(prog) == START_STATE

    def test_loop_unrolling_equivalence(self):
        rng = random.Random(99)
        params = GenParams(max_depth=3, max_block=2, seed=0)
        for _ in range(300):
            body = oracle_sample_block(1, params, rng)
            n = rng.randint(0, 5)
            looped = Program((Loop(Literal(n), body),))
            unrolled = Program(body * n) if n else Program(
                (ActionStmt(Turn(TurnDir.LEFT)),) * 4)
            assert run(looped) == run(unrolled)

    def test_translation_equivariance(self):
        rng = random.Random(7)
        params = GenParams(max_depth=4, seed=0)
        for _ in range(100):
            prog = Program(oracle_sample_block(0, params, rng))
            dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
            base = run(prog)
            shifted = run(prog, RobotState(dx, dy, Facing.N))
            assert (shifted.x, shifted.y) == (base.x + dx, base.y + dy)
            assert shifted.facing == base.facing
            assert shifted.inventory == base.inventory


class TestBudget:
    def test_exact_budget_consumption(self):
        prog = Program((Loop(Literal(10), (ActionStmt(Turn(TurnDir.LEFT)),)),))
        result = exec_program(prog, START_STATE, budget=10)
        assert isinstance(result, Final)
        assert result.steps_used == 10

    def test_budget_exceeded(self):
        prog = Program((Loop(Literal(11), (ActionStmt(Turn(TurnDir.LEFT)),)),))
        assert isinstance(exec_program(prog, START_STATE, budget=10),
                          BudgetExceeded)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_refused(self, budget):
        prog = Program((ActionStmt(Turn(TurnDir.LEFT)),))
        with pytest.raises(ValueError, match="^budget must be at least 1$"):
            exec_program(prog, START_STATE, budget=budget)

    def test_move_is_one_step_regardless_of_distance(self):
        prog = Program((ActionStmt(Move(MoveDir.FORWARD, Literal(1000))),))
        result = exec_program(prog, START_STATE, budget=1)
        assert isinstance(result, Final)
        assert result.steps_used == 1

    def test_step_bound_dominates_actual_steps(self):
        rng = random.Random(5)
        params = GenParams(max_depth=5, seed=0)
        for _ in range(200):
            prog = Program(oracle_sample_block(0, params, rng))
            bound = step_bound(prog, DEFAULT_BUDGET)
            result = exec_program(prog)
            assert isinstance(result, Final)
            assert result.steps_used <= bound

    def test_step_bound_saturates_at_cap(self):
        deep = Program((Loop(Literal(5), (Loop(Literal(5), (Loop(
            Literal(5), (ActionStmt(Turn(TurnDir.LEFT)),)),)),)),))
        assert step_bound(deep, 10) == 11  # cap + 1 signals overflow


def assert_matches_oracle(prog, state=START_STATE):
    """Equal to the naive walker at the default budget and, when the run
    finishes, at one step short of, exactly at and one step over its use."""
    expected = oracle_exec(prog, state)
    assert exec_program(prog, state) == expected
    if isinstance(expected, Final):
        used = expected.steps_used
        for budget in range(max(1, used - 1), used + 2):
            assert (exec_program(prog, state, budget)
                    == oracle_exec(prog, state, budget))


def _few_kind_stmts(depth):
    # three kinds, so grabs inside loops flip the conditions that read them
    kind = st.sampled_from((KEY, BOX, BALL))
    action = st.one_of(
        st.builds(Move, st.sampled_from(MoveDir),
                  st.integers(0, 3).map(Literal)),
        st.builds(Turn, st.sampled_from(TurnDir)),
        st.builds(Grab, kind),
    ).map(ActionStmt)
    if depth == 0:
        return action
    block = st.lists(_few_kind_stmts(depth - 1), max_size=3).map(tuple)
    held = st.builds(Holding, kind)
    cond = held | st.builds(Not, held) | st.builds(
        BinaryBool, st.sampled_from(BoolOp), held, held)
    return st.one_of(
        action,
        st.builds(Loop, st.integers(0, 6).map(Literal), block),
        st.builds(If, cond, block, st.none() | block),
    )


_start_states = st.builds(
    RobotState, st.integers(-50, 50), st.integers(-50, 50),
    st.sampled_from(Facing),
    st.lists(st.sampled_from(ITEM_VOCAB), max_size=5).map(
        lambda items: tuple(Counter(items).items())),
)


_counted_states = st.builds(
    RobotState, st.integers(-50, 50), st.integers(-50, 50),
    st.sampled_from(Facing),
    st.dictionaries(st.sampled_from(ITEM_VOCAB), st.integers(1, 40),
                    max_size=4).map(lambda held: tuple(held.items())),
)


def _grab_loops(depth):
    # a loop whose body grabs, around more grabs, turns, moves and loops
    grab = st.sampled_from((KEY, BOX, BALL)).map(
        lambda item: ActionStmt(Grab(item)))
    inner = _few_kind_stmts(1)
    if depth:
        inner = inner | _grab_loops(depth - 1)
    return st.builds(
        lambda count, first, rest: Loop(Literal(count), (first, *rest)),
        st.integers(0, 12), grab, st.lists(inner, max_size=3))


class TestLoopSummary:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_grab_loops(2), min_size=1, max_size=3),
           _counted_states)
    def test_grabs_in_loops_match_oracle(self, body, state):
        prog = Program(tuple(body))
        assert_matches_oracle(prog, state)
        final = exec_program(prog, state).state
        assert len(final.inventory) <= 30
        assert RobotState.from_dict(final.to_dict()) == final

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.tuples(*[st.integers(0, 4)] * 3).filter(any),
           st.integers(1, 4), st.integers(1, 3), _start_states)
    def test_matches_oracle_on_sampled_programs(self, seed, weights, depth,
                                                block, state):
        # literal counts (E = 1) keep the naive walk short
        params = GenParams(max_depth=depth, max_block=block, expr_depth=1,
                           node_weights=weights, seed=0)
        prog = Program(oracle_sample_block(0, params, random.Random(seed)))
        assert_matches_oracle(prog, state)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_few_kind_stmts(3), min_size=1, max_size=4),
           _start_states)
    def test_matches_oracle_when_branches_flip(self, body, state):
        assert_matches_oracle(Program(tuple(body)), state)

    @pytest.mark.parametrize("direction", list(TurnDir))
    @pytest.mark.parametrize("turns", [1, 2, 3])
    def test_rotating_body_every_remainder(self, direction, turns):
        body = ((ActionStmt(Move(MoveDir.FORWARD, Literal(2))),
                 ActionStmt(Grab(KEY)))
                + (ActionStmt(Turn(direction)),) * turns
                + (ActionStmt(Move(MoveDir.BACKWARD, Literal(1))),))
        for count in [*range(13), 997, 998, 999, 1000]:
            for facing in Facing:
                state = RobotState(3, -1, facing, ((BOX, 1),))
                assert_matches_oracle(
                    Program((Loop(Literal(count), body),)), state)

    def test_kinds_grow_then_stabilize(self):
        # iteration 1 grabs a key; iteration 2 grabs a box and turns left;
        # from then on the box branch is taken and only keys and x change
        body = (
            If(Holding(BOX),
               (ActionStmt(Move(MoveDir.FORWARD, Literal(1))),),
               (If(Holding(KEY),
                   (ActionStmt(Grab(BOX)), ActionStmt(Turn(TurnDir.LEFT))),
                   None),)),
            ActionStmt(Grab(KEY)),
        )
        for count in range(8):
            assert_matches_oracle(Program((Loop(Literal(count), body),)))
        result = exec_program(Program((Loop(Literal(1000), body),)))
        assert result == Final(
            RobotState(-998, 0, Facing.W, ((BOX, 1), (KEY, 1000))), 2000)

    def test_zero_step_loops_finish_at_once(self):
        # the loop bodies take no steps, so no budget can stop them
        taken_and_empty = If(Not(Holding(KEY)), (), None)
        for body in ((), (taken_and_empty,)):
            start = time.perf_counter()
            result = exec_program(Program((Loop(Literal(10 ** 12), body),)))
            assert time.perf_counter() - start < 1.0
            assert result == Final(START_STATE, 0)

    def test_budget_checked_before_counts_grow(self):
        start = time.perf_counter()
        grabs = Program((Loop(Literal(10 ** 12), (ActionStmt(Grab(KEY)),)),))
        assert exec_program(grabs) == BudgetExceeded()
        assert time.perf_counter() - start < 1.0

    def test_deep_nest_counts_every_turn(self):
        body = (ActionStmt(Turn(TurnDir.LEFT)),)
        for _ in range(9):
            body = (Loop(Literal(5), body),)
        nest = Program(body)
        assert exec_program(nest) == BudgetExceeded()
        assert exec_program(nest, START_STATE, 5 ** 9 - 1) == BudgetExceeded()
        # 5**9 is 1 mod 4: one net left turn
        assert exec_program(nest, START_STATE, 5 ** 9) == Final(
            RobotState(0, 0, Facing.W), 5 ** 9)


class TestStateSerialization:
    def test_round_trip(self):
        state = RobotState(-3, 9, Facing.W, ((KEY, 2), (BOX, 1)))
        assert RobotState.from_dict(state.to_dict()) == state

    def test_inventory_is_an_object_of_counts(self):
        state = RobotState(1, 2, Facing.S, ((KEY, 2), (BALL, 1)))
        assert state.to_dict() == {"x": 1, "y": 2, "facing": "S",
                                   "inventory": {"ball": 1, "key": 2}}

    def test_list_form_reads_to_the_same_state(self):
        data = {"x": 1, "y": 2, "facing": "S"}
        listed = RobotState.from_dict(
            {**data, "inventory": ["key", "ball", "key"]})
        counted = RobotState.from_dict(
            {**data, "inventory": {"key": 2, "ball": 1}})
        assert listed == counted
        assert listed.inventory == ((BALL, 1), (KEY, 2))

    @pytest.mark.parametrize("count", [0, -1, 1.5, True, "3", None])
    def test_bad_counts_rejected(self, count):
        data = {**START_STATE.to_dict(), "inventory": {"key": count}}
        with pytest.raises(ValueError, match="count of key"):
            RobotState.from_dict(data)

    @pytest.mark.parametrize("name", NON_ITEMS)
    @pytest.mark.parametrize("form", [list, dict])
    def test_unknown_items_rejected_in_either_form(self, name, form):
        held = [name] if form is list else {name: 1}
        data = {**START_STATE.to_dict(), "inventory": held}
        with pytest.raises(ValueError, match="not an item"):
            RobotState.from_dict(data)

    @pytest.mark.parametrize("held", [None, "key", 3, [["key"]], [3]])
    def test_inventory_of_another_shape_rejected(self, held):
        data = {**START_STATE.to_dict(), "inventory": held}
        with pytest.raises(ValueError):
            RobotState.from_dict(data)

    @pytest.mark.parametrize("inventory", [
        ((KEY, 1), (KEY, 2)),
        ((KEY, 0),),
        ((KEY, True),),
        (KEY,),
        ((KEY, 1, 1),),
        (("rock", 1),),
        ((5, 1),),
        ((["key"], 1),),
    ])
    def test_constructor_checks_pairs(self, inventory):
        with pytest.raises(ValueError):
            RobotState(0, 0, Facing.N, inventory)

    def test_items_are_plain_names(self):
        read = RobotState.from_dict(
            {**START_STATE.to_dict(), "inventory": {"key_2": 1, "box": 3}})
        grabs = Program((ActionStmt(Grab("cube_4")), ActionStmt(Grab(KEY))))
        final = exec_program(grabs, read).state
        assert final.inventory == (("box", 3), ("cube_4", 1), ("key", 1),
                                   ("key_2", 1))
        for state in (read, final):
            assert all(type(item) is str for item, _ in state.inventory)

    @pytest.mark.parametrize("value", [1.9, True, " 7 ", None, "7", 2.0])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_coordinates_must_be_ints(self, name, value):
        data = {**START_STATE.to_dict(), name: value}
        with pytest.raises(ValueError, match="coordinates must be ints"):
            RobotState.from_dict(data)

    @pytest.mark.parametrize("x, y", [(1.5, 0), (0, True), (0, "7")])
    def test_constructor_checks_coordinates(self, x, y):
        with pytest.raises(ValueError):
            RobotState(x, y, Facing.N)

    def test_unknown_field_rejected(self):
        data = START_STATE.to_dict()
        data["z"] = 1
        with pytest.raises(ValueError):
            RobotState.from_dict(data)

    def test_missing_field_rejected(self):
        data = START_STATE.to_dict()
        del data["facing"]
        with pytest.raises(ValueError):
            RobotState.from_dict(data)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200))
def test_forward_n_equals_n_forward_ones(n):
    many = Program(tuple(
        ActionStmt(Move(MoveDir.FORWARD, Literal(1))) for _ in range(n)
    ) or (ActionStmt(Turn(TurnDir.LEFT)),) * 4)
    one = Program((ActionStmt(Move(MoveDir.FORWARD, Literal(n))),))
    assert run(many).y == run(one).y == (n if n else 0)
