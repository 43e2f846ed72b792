"""Tree node invariants, depth metrics, and canonical form round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    MAX_NESTING,
    ActionStmt,
    ArithOp,
    BinaryArith,
    BinaryBool,
    BoolOp,
    CanonParseError,
    Grab,
    Holding,
    If,
    ITEM_BASES,
    ITEM_VOCAB,
    ItemToken,
    Literal,
    Loop,
    Move,
    MoveDir,
    Not,
    Program,
    Turn,
    TurnDir,
    canon_parse,
    canon_serialize,
    control_depth,
    expr_depth,
)
from gridlang.grammar import LexiconMode, Style
from gridlang.sampler import GenParams, generate_instance

from conftest import oracle_control_depth


def turn():
    return ActionStmt(Turn(TurnDir.LEFT))


def loop_tower(height: int) -> Program:
    stmt = turn()
    for _ in range(height):
        stmt = Loop(Literal(2), (stmt,))
    return Program((stmt,))


NINETEEN = BinaryArith(ArithOp.ADD,
                       BinaryArith(ArithOp.MUL, Literal(4), Literal(4)),
                       Literal(3))


class TestItems:
    def test_render_parse_round_trip(self):
        for item in ITEM_VOCAB:
            assert ItemToken.parse(item.render()) == item

    def test_vocabulary_is_five_bases_by_six_variants(self):
        assert len(ITEM_VOCAB) == 30
        assert len(set(i.render() for i in ITEM_VOCAB)) == 30
        assert ItemToken("key", None).render() == "key"
        assert ItemToken("key", 2).render() == "key_2"

    def test_bad_items_rejected(self):
        with pytest.raises(ValueError):
            ItemToken("rock", None)
        with pytest.raises(ValueError):
            ItemToken("key", 5)
        with pytest.raises(ValueError):
            ItemToken.parse("key_9")
        with pytest.raises(ValueError):
            ItemToken.parse("stone")


class TestDepthMetrics:
    def test_control_depth_of_towers(self):
        for height in (0, 1, 2, 7, 10):
            tower = loop_tower(height)
            assert control_depth(tower) == height
            assert oracle_control_depth(tower) == height

    def test_control_depth_counts_deepest_branch(self):
        prog = Program((
            If(Holding(ItemToken("key", None)),
               (turn(),),
               (Loop(Literal(1), (Loop(Literal(1), (turn(),)),)),)),
        ))
        assert control_depth(prog) == 3
        assert oracle_control_depth(prog) == 3

    def test_actions_have_depth_zero(self):
        assert control_depth(Program((turn(), turn()))) == 0

    def test_expr_depth_counts_nodes_on_longest_path(self):
        assert expr_depth(Literal(0)) == 1
        assert expr_depth(BinaryArith(ArithOp.ADD, Literal(3),
                                      Literal(4))) == 2
        assert expr_depth(NINETEEN) == 3
        assert expr_depth(Holding(ItemToken("key", None))) == 1
        assert expr_depth(Not(Holding(ItemToken("key", None)))) == 2
        assert expr_depth(
            BinaryBool(BoolOp.AND,
                       Not(Holding(ItemToken("key", None))),
                       Holding(ItemToken("box", 0)))
        ) == 3


class TestEquality:
    def test_flattened_literal_differs_from_expression(self):
        # same evaluated value, different structure
        assert (Program((Loop(Literal(19), (turn(),)),))
                != Program((Loop(NINETEEN, (turn(),)),)))

    def test_else_presence_distinguishes(self):
        cond = Holding(ItemToken("key", None))
        with_else = Program((If(cond, (turn(),), (turn(),)),))
        without = Program((If(cond, (turn(),), None),))
        assert with_else != without

    def test_operand_order_distinguishes(self):
        a = BinaryArith(ArithOp.ADD, Literal(1), Literal(2))
        b = BinaryArith(ArithOp.ADD, Literal(2), Literal(1))
        assert (Program((Loop(a, (turn(),)),))
                != Program((Loop(b, (turn(),)),)))

    def test_move_count_omission_is_surface_only(self):
        explicit = ActionStmt(Move(MoveDir.FORWARD, Literal(1)))
        omitted = ActionStmt(Move(MoveDir.FORWARD, Literal(1),
                                  steps_omitted=True))
        assert Program((explicit,)) == Program((omitted,))


class TestNodeValidation:
    def test_literal_constructor_allows_large_values(self):
        # parsing flattened model output like 19 or 46 must construct
        assert Literal(19).value == 19
        assert Literal(46).value == 46

    def test_literal_rejects_negative(self):
        with pytest.raises(ValueError):
            Literal(-1)

    def test_empty_blocks_are_representable(self):
        # some surface styles admit empty braces, so the node level must too
        empty_loop = Loop(Literal(2), ())
        assert control_depth(Program((empty_loop,))) == 1


class TestCanonicalForm:
    def test_serialize_shapes(self):
        prog = Program((
            ActionStmt(Move(MoveDir.FORWARD, Literal(2))),
            ActionStmt(Move(MoveDir.BACKWARD, Literal(1),
                            steps_omitted=True)),
            ActionStmt(Grab(ItemToken("key", 2))),
            Loop(NINETEEN, (turn(),)),
            If(Not(Holding(ItemToken("cube", None))), (turn(),), (turn(),)),
        ))
        text = canon_serialize(prog)
        assert text.startswith("(prog ")
        assert "(move F (int 2))" in text
        assert "(move B)" in text
        assert "(grab key_2)" in text
        assert "(loop (add (mul (int 4) (int 4)) (int 3)) ((turn L)))" in text
        # if carries the condition, then-block, and optional else-block
        assert "(if (not (holding cube)) ((turn L)) ((turn L)))" in text

    def test_round_trip_hand_built(self):
        prog = Program((
            If(BinaryBool(BoolOp.OR,
                          Holding(ItemToken("ball", 3)),
                          Not(Holding(ItemToken("item", None)))),
               (Loop(Literal(0), (turn(),)),),
               None),
            ActionStmt(Move(MoveDir.BACKWARD, NINETEEN)),
        ))
        assert canon_parse(canon_serialize(prog)) == prog

    def test_round_trip_sampled(self):
        for seed in range(10):
            _, _, tree = generate_instance(
                Style.SEXPR, LexiconMode.NATURAL,
                GenParams(max_depth=6, seed=seed),
            )
            assert canon_parse(canon_serialize(tree)) == tree

    def test_parse_rejects_trailing_tokens(self):
        text = canon_serialize(loop_tower(1)) + " (turn L)"
        with pytest.raises(CanonParseError):
            canon_parse(text)

    def test_parse_error_carries_token_position(self):
        with pytest.raises(CanonParseError) as info:
            canon_parse("(prog (loop banana (turn L)))")
        assert "token" in str(info.value)

    def test_nesting_limit(self):
        def nested(levels):  # (prog (move F (add ... (int 1) ...)))
            count = Literal(1)
            for _ in range(levels):
                count = BinaryArith(ArithOp.ADD, count, Literal(1))
            return Program((ActionStmt(Move(MoveDir.FORWARD, count)),))

        at_limit = nested(MAX_NESTING - 3)
        assert canon_parse(canon_serialize(at_limit)) == at_limit
        text = canon_serialize(nested(MAX_NESTING - 2))
        with pytest.raises(CanonParseError) as info:
            canon_parse(text)
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        assert tokens[:info.value.position + 1].count("(") == MAX_NESTING + 1
        assert tokens[info.value.position] == "("

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(CanonParseError):
            canon_parse("(prog (move F (int \u00b2)))")

    def test_omitted_move_count_survives_round_trip(self):
        prog = Program((ActionStmt(Move(MoveDir.FORWARD, Literal(1),
                                        steps_omitted=True)),))
        back = canon_parse(canon_serialize(prog))
        stmt = back.body[0]
        assert isinstance(stmt, ActionStmt)
        assert stmt.action.steps_omitted
        assert stmt.action.steps == Literal(1)


_items = st.sampled_from(ITEM_VOCAB)
_literals = st.integers(min_value=0, max_value=5).map(Literal)


def _arith(depth):
    if depth <= 1:
        return _literals
    sub = _arith(depth - 1)
    return st.builds(BinaryArith, st.sampled_from(ArithOp), sub, sub) | \
        _literals


def _cond(depth):
    leaf = st.builds(Holding, _items)
    if depth <= 1:
        return leaf
    sub = _cond(depth - 1)
    return leaf | st.builds(Not, sub) | st.builds(
        BinaryBool, st.sampled_from(BoolOp), sub, sub)


def _stmt(depth):
    action = st.one_of(
        st.builds(Move, st.sampled_from(MoveDir), _arith(2)),
        st.builds(Turn, st.sampled_from(TurnDir)),
        st.builds(Grab, _items),
    ).map(ActionStmt)
    if depth <= 1:
        return action
    block = st.lists(_stmt(depth - 1), min_size=1, max_size=3).map(tuple)
    return st.one_of(
        action,
        st.builds(Loop, _arith(2), block),
        st.builds(If, _cond(2), block, st.none() | block),
    )


_programs = st.lists(_stmt(3), min_size=1, max_size=4).map(
    lambda body: Program(tuple(body)))


class TestCanonicalFormProperties:
    @settings(max_examples=200, deadline=None)
    @given(_programs)
    def test_canonical_round_trip(self, prog):
        assert canon_parse(canon_serialize(prog)) == prog

    @settings(max_examples=200, deadline=None)
    @given(_programs, _programs)
    def test_serialization_injective(self, a, b):
        if canon_serialize(a) == canon_serialize(b):
            assert a == b
        else:
            assert a != b

    @settings(max_examples=100, deadline=None)
    @given(_programs)
    def test_depth_metric_matches_oracle(self, prog):
        assert control_depth(prog) == oracle_control_depth(prog)
