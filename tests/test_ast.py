"""Tree node invariants, depth metrics, and canonical form round-trips."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    MAX_NESTING,
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
    canon_parse,
    canon_serialize,
    control_depth,
    expr_depth,
)
from gridlang.codec import ParseError, linearize, parse, tokenize
from gridlang.grammar import LexiconMode, Style, TerminalRole as R
from gridlang.grammar import build_grammar
from gridlang.sampler import GenParams, generate_instance

from conftest import (
    ALL_COMBOS,
    NON_ITEMS,
    fixed_grammar,
    oracle_canon_parse,
    oracle_canon_serialize,
    oracle_control_depth,
)


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


_GRAB_KEY_2 = Program((ActionStmt(Turn(TurnDir.LEFT)),
                       ActionStmt(Grab("key_2"))))


class TestItems:
    """An item is its name: the surface and canonical parsers yield one of
    the 30 ``ITEM_VOCAB`` strings and refuse any other word at its token
    (``test_world`` holds the state reader's case)."""

    def test_vocabulary_is_five_bases_by_six_names(self):
        assert ITEM_VOCAB[:7] == ("item", "item_0", "item_1", "item_2",
                                  "item_3", "item_4", "key")
        assert ITEM_VOCAB[-1] == "cube_4"
        assert len(set(ITEM_VOCAB)) == 30
        assert all(type(item) is str for item in ITEM_VOCAB)

    @pytest.mark.parametrize("style", list(Style))
    def test_parse_yields_plain_names(self, style):
        g = fixed_grammar(style)
        tree = parse(linearize(_GRAB_KEY_2, g), g)
        assert tree.body[1] == ActionStmt(Grab("key_2"))
        assert type(tree.body[1].action.item) is str

    def test_canon_parse_yields_plain_names(self):
        tree = canon_parse("(prog (grab key_2) (if (holding box) ((turn L))))")
        assert tree.body[0] == ActionStmt(Grab("key_2"))
        assert tree.body[1].cond == Holding("box")
        assert type(tree.body[0].action.item) is str
        assert type(tree.body[1].cond.item) is str

    @pytest.mark.parametrize("text", NON_ITEMS)
    @pytest.mark.parametrize("style", list(Style))
    def test_parse_refuses_non_items(self, style, text):
        g = fixed_grammar(style)
        good = linearize(_GRAB_KEY_2, g)
        with pytest.raises(ParseError) as info:
            parse(good.replace("key_2", text), g)
        assert info.value.position == tokenize(good, g)[0].index("key_2")

    @pytest.mark.parametrize("text", NON_ITEMS)
    def test_canon_parse_refuses_non_items(self, text):
        with pytest.raises(ParseError, match="at token 8: expected "
                                             "ITEM"):
            canon_parse(f"(prog (turn L) (grab {text}))")


class TestDepthMetrics:
    def test_control_depth_of_towers(self):
        for height in (0, 1, 2, 7, 10):
            tower = loop_tower(height)
            assert control_depth(tower) == height
            assert oracle_control_depth(tower) == height

    def test_control_depth_counts_deepest_branch(self):
        prog = Program((
            If(Holding("key"),
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
        assert expr_depth(Holding("key")) == 1
        assert expr_depth(Not(Holding("key"))) == 2
        assert expr_depth(
            BinaryBool(BoolOp.AND,
                       Not(Holding("key")),
                       Holding("box_0"))
        ) == 3


class TestEquality:
    def test_flattened_literal_differs_from_expression(self):
        # same evaluated value, different structure
        assert (Program((Loop(Literal(19), (turn(),)),))
                != Program((Loop(NINETEEN, (turn(),)),)))

    def test_else_presence_distinguishes(self):
        cond = Holding("key")
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
        assert Program((explicit,)) == canon_parse("(prog (move F))")


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
            ActionStmt(Move(MoveDir.BACKWARD, Literal(1))),
            ActionStmt(Grab("key_2")),
            Loop(NINETEEN, (turn(),)),
            If(Not(Holding("cube")), (turn(),), (turn(),)),
        ))
        text = canon_serialize(prog)
        assert text.startswith("(prog ")
        assert "(move F (int 2))" in text
        assert "(move B (int 1))" in text
        assert "(grab key_2)" in text
        assert "(loop (add (mul (int 4) (int 4)) (int 3)) ((turn L)))" in text
        # if carries the condition, then-block, and optional else-block
        assert "(if (not (holding cube)) ((turn L)) ((turn L)))" in text

    def test_round_trip_hand_built(self):
        prog = Program((
            If(BinaryBool(BoolOp.OR,
                          Holding("ball_3"),
                          Not(Holding("item"))),
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
        with pytest.raises(ParseError):
            canon_parse(text)

    def test_parse_error_carries_token_position(self):
        with pytest.raises(ParseError) as info:
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
        with pytest.raises(ParseError) as info:
            canon_parse(text)
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        assert tokens[:info.value.position + 1].count("(") == MAX_NESTING + 1
        assert tokens[info.value.position] == "("

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(ParseError):
            canon_parse("(prog (move F (int \u00b2)))")

    def test_non_ascii_item_suffix_rejected(self):
        with pytest.raises(ParseError):
            canon_parse("(prog (grab key_\u0663))")

    def test_omitted_move_count_survives_round_trip(self):
        prog = canon_parse("(prog (move F))")
        back = canon_parse(canon_serialize(prog))
        stmt = back.body[0]
        assert isinstance(stmt, ActionStmt)
        assert canon_serialize(back) == "(prog (move F (int 1)))"
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


# --- the grammar-derived canonical form against the hand-written reference --


def _free_stmt(depth):
    """Statements in shapes the sampler never emits too: empty blocks and
    else-blocks, one-step moves, multi-digit counts."""
    counts = st.integers(0, 10 ** 6).map(Literal) | _arith(3)
    action = st.one_of(
        st.builds(Move, st.sampled_from(MoveDir), counts),
        st.builds(lambda d: Move(d, Literal(1)), st.sampled_from(MoveDir)),
        st.builds(Turn, st.sampled_from(TurnDir)),
        st.builds(Grab, _items),
    ).map(ActionStmt)
    if depth <= 1:
        return action
    block = st.lists(_free_stmt(depth - 1), max_size=3).map(tuple)
    return st.one_of(
        action,
        st.builds(Loop, counts, block),
        st.builds(If, _cond(3), block, st.none() | block),
    )


_free_programs = st.lists(_free_stmt(4), min_size=1, max_size=4).map(
    lambda body: Program(tuple(body)))


@functools.lru_cache(maxsize=None)
def _gold_tree(style, mode, depth, seed):
    return generate_instance(style, mode, GenParams(max_depth=depth,
                                                    seed=seed))[2]


def _trees(data):
    if data.draw(st.booleans()):
        return data.draw(_free_programs)
    style, mode = data.draw(st.sampled_from(ALL_COMBOS))
    return _gold_tree(style, mode, data.draw(st.sampled_from([2, 5, 10, 20])),
                      data.draw(st.integers(0, 4)))


def _outcome(parser, text):
    """The tree with its reference text, or None for a rejection."""
    try:
        tree = parser(text)
    except ValueError:  # ParseError, or int()'s digit limit
        return None
    return tree, oracle_canon_serialize(tree)


_SUBSTITUTES = ["\u0663", "\u00b2", "key-2", "[", "]", "{", "}", "@", "zz",
                "key_9", "9" * 5000, "(" * 120, "prog", "int", "-1", "7", "(",
                ")"]
_CANON_WORDS = ["(", ")", "prog", "loop", "if", "move", "turn", "grab", "int",
                "add", "mul", "holding", "not", "and", "or", "F", "B", "L", "R",
                "0", "12", *ITEM_VOCAB]


class TestCanonicalDifferential:
    """``canon_serialize``/``canon_parse`` are compiled from the grammar
    tables; the reference in conftest is the hand-written codec.  They
    write the same bytes and accept the same texts with the same trees."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_serialize_and_parse_match_reference(self, data):
        tree = _trees(data)
        text = canon_serialize(tree)
        assert text == oracle_canon_serialize(tree)
        assert _outcome(canon_parse, text) == (tree, text)
        assert _outcome(oracle_canon_parse, text) == (tree, text)

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_mutated_text_gets_the_reference_verdict(self, data):
        if data.draw(st.booleans()):
            words = data.draw(st.lists(st.sampled_from(_CANON_WORDS),
                                       max_size=40))
        else:
            text = oracle_canon_serialize(_trees(data))
            words = text.replace("(", " ( ").replace(")", " ) ").split()
        for _ in range(data.draw(st.integers(1, 3))):
            edit = data.draw(st.sampled_from(["delete", "duplicate", "prefix",
                                              "substitute", "swap"]))
            if not words:
                break
            k = data.draw(st.integers(0, len(words) - 1))
            if edit == "delete":
                del words[k]
            elif edit == "duplicate":
                words.insert(k, words[k])
            elif edit == "prefix":
                words = words[:k]
            elif edit == "substitute":
                words[k] = data.draw(st.sampled_from(_SUBSTITUTES))
            else:
                j = data.draw(st.integers(0, len(words) - 1))
                words[j], words[k] = words[k], words[j]
        text = data.draw(st.sampled_from([" ", "  ", "\t", "\u00a0"])).join(
            words)
        expected = _outcome(oracle_canon_parse, text)
        if expected is None:
            with pytest.raises(ParseError):
                canon_parse(text)
        else:
            assert _outcome(canon_parse, text) == expected

    @pytest.mark.parametrize("argument", [5, None, b"(prog (turn L))",
                                          ["(prog (turn L))"]])
    def test_non_text_is_a_parse_error(self, argument):
        with pytest.raises(ParseError) as info:
            canon_parse(argument)
        found = type(argument).__name__
        assert (info.value.position, info.value.expected,
                info.value.found) == (0, "text", found)
        assert str(info.value) == f"at token 0: expected text, found {found}"

    @pytest.mark.parametrize("text", [
        "(prog (loop banana (turn L)))", "(prog (turn L)", "(prog) x", "",
        "(prog (grab key_9))", "(" * (MAX_NESTING + 1)])
    def test_canon_parse_rejects_as_parse_does(self, text):
        """One class for every grammar's rejection, with its fields set."""
        with pytest.raises(ParseError) as canon:
            canon_parse(text)
        with pytest.raises(ParseError) as styled:
            parse(text, fixed_grammar(Style.SEXPR))
        assert type(canon.value) is type(styled.value) is ParseError
        err = canon.value
        assert isinstance(err.position, int)
        assert err.expected and err.found
        assert str(err) == (f"at token {err.position}: expected "
                            f"{err.expected}, found {err.found}")


def _respelled(text, g):
    """The same tree spelled another way: ``text``'s words on one line,
    each move's count of ``1`` left out."""
    words, syms, _starts = tokenize(text, g)
    return " ".join(word for word, sym, prev in zip(words, syms, [None] + syms)
                    if not (word == "1" and prev in (R.DIR_FWD, R.DIR_BWD)))


class TestOneTextPerTree:
    """A tree keeps no record of its spelling: equal trees, however they
    were written, render one canonical text and one text per grammar."""

    @settings(max_examples=100, deadline=None)
    @given(_programs | st.builds(_gold_tree, st.sampled_from(Style),
                                 st.sampled_from(LexiconMode),
                                 st.sampled_from([2, 5, 10]),
                                 st.integers(0, 4)), st.integers(0, 3))
    def test_equal_trees_render_equal_texts(self, tree, seed):
        # every style spells these trees: no block is empty
        for style, mode in ALL_COMBOS:
            g = build_grammar(style, mode, seed)
            text = linearize(tree, g)
            other = parse(_respelled(text, g), g)
            assert other == tree
            assert linearize(other, g) == text
            assert canon_serialize(other) == canon_serialize(tree)

    @pytest.mark.parametrize("style, text", [
        (Style.BLOCK, "do move forward end do move backward end"),
        (Style.C, "loop (2) { move forward; } move backward;"),
        (Style.SEXPR, "(move forward) (loop 2 (move backward))"),
    ])
    def test_omitted_count_is_an_explicit_one(self, style, text):
        g = fixed_grammar(style)
        explicit = text.replace("forward", "forward 1").replace(
            "backward", "backward 1")
        tree = parse(text, g)
        assert tree == parse(explicit, g)
        assert linearize(tree, g) == linearize(parse(explicit, g), g)
        assert canon_serialize(tree).count("(int 1)") == 2
