"""Tokenizer behavior, style-faithful rendering, and parse round-trips."""

import itertools

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
    ItemToken,
    Literal,
    Loop,
    Move,
    MoveDir,
    Not,
    Program,
    Turn,
    TurnDir,
)
from gridlang.codec import ParseError, TokenKind, linearize, parse, tokenize
from gridlang.grammar import (
    LexiconMode,
    Style,
    TerminalRole as R,
    build_grammar,
    render_ebnf,
)
from gridlang.sampler import GenParams, generate_instance

from conftest import (
    ALL_COMBOS,
    bracket_depth,
    deep_surface,
    derive,
    fixed_grammar,
)

BLOCK_G = fixed_grammar(Style.BLOCK)
C_G = fixed_grammar(Style.C)
SEXPR_G = fixed_grammar(Style.SEXPR)

REFERENCE_PROGRAM = Program((
    ActionStmt(Turn(TurnDir.LEFT)),
    ActionStmt(Move(MoveDir.FORWARD, Literal(1), steps_omitted=True)),
    ActionStmt(Grab(ItemToken("key", 2))),
    Loop(BinaryArith(ArithOp.ADD,
                     BinaryArith(ArithOp.MUL, Literal(4), Literal(4)),
                     Literal(3)),
         (ActionStmt(Turn(TurnDir.LEFT)),)),
    If(Not(BinaryBool(BoolOp.AND,
                      Holding(ItemToken("cube", 0)),
                      Holding(ItemToken("cube", 4)))),
       (ActionStmt(Move(MoveDir.BACKWARD,
                        BinaryArith(ArithOp.MUL, Literal(2), Literal(4)))),),
       (ActionStmt(Turn(TurnDir.RIGHT)),)),
))

BLOCK_SURFACE = """\
do turn left end
do move forward end
do grab key_2 end
loop ((4 * 4) + 3) times {
  do turn left end
}
if not ((holding cube_0 and holding cube_4)) then {
  do move backward (2 * 4) end
} else {
  do turn right end
}"""

C_SURFACE = """\
turn left;
move forward;
grab key_2;
loop (((4 * 4) + 3)) {
  turn left;
}
if (not ((holding cube_0 and holding cube_4))) {
  move backward (2 * 4);
} else {
  turn right;
}"""

SEXPR_SURFACE = """\
(turn left)
(move forward)
(grab key_2)
(loop (+ (* 4 4) 3)
  (turn left)
)
(if (not (and (holding cube_0) (holding cube_4))) then
  (move backward (* 2 4))
else
  (turn right)
)"""


class TestTokenizer:
    def test_whitespace_free_punctuation_still_splits(self):
        g = fixed_grammar(Style.BLOCK, LOOP="repeat", TIMES="iters")
        tokens = tokenize("repeat(3+4)iters", g)
        assert [t.text for t in tokens] == [
            "repeat", "(", "3", "+", "4", ")", "iters"
        ]
        assert len(tokens) == 7

    def test_token_kinds(self):
        tokens = tokenize("loop 3 key_2 { zzz", BLOCK_G)
        kinds = [t.kind for t in tokens]
        assert kinds == [TokenKind.KEYWORD, TokenKind.INT, TokenKind.ITEM,
                         TokenKind.PUNCT, TokenKind.UNKNOWN]
        assert tokens[0].role is R.LOOP

    def test_offsets_slice_source(self):
        text = "do  grab\tkey end"
        for token in tokenize(text, BLOCK_G):
            assert text[token.start:token.end] == token.text

    def test_tokenizer_never_fails(self):
        assert tokenize("", BLOCK_G) == []
        assert [t.kind for t in tokenize("@#%", BLOCK_G)] == [
            TokenKind.UNKNOWN] * 3


class TestFrozenSurfaces:
    def test_block_rendering(self):
        assert linearize(REFERENCE_PROGRAM, BLOCK_G) == BLOCK_SURFACE

    def test_c_rendering(self):
        assert linearize(REFERENCE_PROGRAM, C_G) == C_SURFACE

    def test_sexpr_rendering(self):
        assert linearize(REFERENCE_PROGRAM, SEXPR_G) == SEXPR_SURFACE

    def test_frozen_surfaces_reparse(self):
        for g, surface in ((BLOCK_G, BLOCK_SURFACE), (C_G, C_SURFACE),
                           (SEXPR_G, SEXPR_SURFACE)):
            assert parse(surface, g) == REFERENCE_PROGRAM

    def test_nested_condition_rendering(self):
        # binary condition children keep their own parentheses
        prog = Program((
            If(BinaryBool(BoolOp.OR,
                          Not(Holding(ItemToken("ball", 3))),
                          BinaryBool(BoolOp.AND,
                                     Holding(ItemToken("item", None)),
                                     Holding(ItemToken("ball", 2)))),
               (ActionStmt(Turn(TurnDir.LEFT)),),
               None),
        ))
        g = fixed_grammar(Style.BLOCK, IF="if", NOT="no", OR="alt",
                          HOLDING="has", THEN="next")
        first = linearize(prog, g).splitlines()[0]
        assert first == \
            "if (no (has ball_3) alt (has item and has ball_2)) next {"


class TestParsing:
    def test_empty_input_rejected_at_position_zero(self):
        for g in (BLOCK_G, C_G, SEXPR_G):
            with pytest.raises(ParseError) as info:
                parse("", g)
            assert info.value.position == 0
            assert info.value.found == "end of input"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("do turn left end end", BLOCK_G)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ParseError):
            parse("do twirl left end", BLOCK_G)

    def test_missing_delimiter_rejected(self):
        with pytest.raises(ParseError):
            parse("loop 3 times { do turn left end", BLOCK_G)
        with pytest.raises(ParseError):
            parse("do turn left", BLOCK_G)

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(ParseError) as info:
            parse("do turn left stop", BLOCK_G)
        assert info.value.position == 3
        assert "end" in info.value.expected

    def test_omitted_move_count_defaults_to_one_step(self):
        prog = parse("do move forward end", BLOCK_G)
        action = prog.body[0].action
        assert action.steps == Literal(1)
        assert action.steps_omitted

    def test_c_style_empty_blocks_parse(self):
        prog = parse("loop (2) {\n}", C_G)
        assert prog.body[0].body == ()

    def test_block_style_requires_nonempty_blocks(self):
        with pytest.raises(ParseError):
            parse("loop 2 times {\n}", BLOCK_G)

    def test_large_literals_parse(self):
        # flattened model output may carry values the sampler never draws
        prog = parse("loop 19 times { do turn left end }", BLOCK_G)
        assert prog.body[0].count == Literal(19)


class TestRoundTrip:
    def test_all_style_lexicon_combos(self):
        for style, mode in ALL_COMBOS:
            for seed in range(8):
                params = GenParams(max_depth=6, seed=seed)
                g, code, tree = generate_instance(style, mode, params)
                assert parse(code, g) == tree, (style, mode, seed)

    def test_alien_round_trip_specifically(self):
        g = build_grammar(Style.SEXPR, LexiconMode.ALIEN, 77)
        code = linearize(REFERENCE_PROGRAM, g)
        assert "turn" not in code  # keywords really are opaque
        assert parse(code, g) == REFERENCE_PROGRAM

    def test_linearize_deterministic(self):
        g = build_grammar(Style.C, LexiconMode.ALIEN, 3)
        assert linearize(REFERENCE_PROGRAM, g) == \
            linearize(REFERENCE_PROGRAM, g)


def _small_programs():
    """Systematic enumeration of one- and two-statement programs."""
    actions = [
        ActionStmt(Turn(TurnDir.LEFT)),
        ActionStmt(Turn(TurnDir.RIGHT)),
        ActionStmt(Grab(ItemToken("key", None))),
        ActionStmt(Grab(ItemToken("key", 1))),
        ActionStmt(Move(MoveDir.FORWARD, Literal(2))),
        ActionStmt(Move(MoveDir.BACKWARD, Literal(2))),
        ActionStmt(Move(MoveDir.FORWARD, Literal(3))),
        ActionStmt(Move(MoveDir.FORWARD, Literal(1), steps_omitted=True)),
        ActionStmt(Move(MoveDir.FORWARD,
                        BinaryArith(ArithOp.ADD, Literal(1), Literal(2)))),
        ActionStmt(Move(MoveDir.FORWARD,
                        BinaryArith(ArithOp.MUL, Literal(1), Literal(2)))),
    ]
    stmts = list(actions)
    for action in actions[:4]:
        stmts.append(Loop(Literal(2), (action,)))
        stmts.append(If(Holding(ItemToken("box", None)), (action,), None))
        stmts.append(If(Holding(ItemToken("box", None)), (action,),
                        (actions[0],)))
        stmts.append(If(Not(Holding(ItemToken("box", None))), (action,),
                        None))
    programs = [Program((s,)) for s in stmts]
    programs += [Program(pair) for pair in
                 itertools.product(actions[:5], repeat=2)]
    return programs


def test_rendering_injective_over_small_program_space():
    for style in Style:
        g = fixed_grammar(style)
        rendered = {}
        for prog in _small_programs():
            code = linearize(prog, g)
            assert code not in rendered or rendered[code] == prog, \
                f"collision under {style}: {code!r}"
            rendered[code] = prog
            assert parse(code, g) == prog


class TestIntegerLiterals:
    """INT is the class line's ASCII ``[0-9]+``; a literal that does not
    convert is a rejection at its token, never an escaping ValueError."""

    def test_superscript_digit_rejected(self):
        with pytest.raises(ParseError) as info:
            parse("loop (\u00b2) { turn left; }", C_G)
        assert info.value.position == 2

    def test_non_ascii_digit_is_not_an_integer(self):
        assert tokenize("\u0663", BLOCK_G)[0].kind is TokenKind.UNKNOWN
        with pytest.raises(ParseError) as info:
            parse("loop \u0663 times { do turn left end }", BLOCK_G)
        assert info.value.position == 1

    def test_literal_past_int_digit_limit_rejected_at_its_token(self):
        with pytest.raises(ParseError) as info:
            parse("do move forward " + "9" * 5000 + " end", BLOCK_G)
        assert info.value.position == 3


class TestNestingLimit:
    @pytest.mark.parametrize("style", list(Style))
    def test_limit_parses(self, style):
        g = fixed_grammar(style)
        text = deep_surface(g, MAX_NESTING)
        assert bracket_depth(text) == MAX_NESTING
        assert linearize(parse(text, g), g) == text

    @pytest.mark.parametrize("style", list(Style))
    def test_one_past_the_limit_rejected_at_that_bracket(self, style):
        g = fixed_grammar(style)
        text = deep_surface(g, MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            parse(text, g)
        words = [t.text for t in tokenize(text, g)]
        opened = words[:info.value.position + 1]
        assert opened[-1] in "([{"
        assert bracket_depth("".join(opened)) == MAX_NESTING + 1


class TestGrammarDerivations:
    """Every sentence derived from the printed EBNF parses, including
    shapes the sampler never emits (omitted move counts, multi-digit
    literals, C-style empty blocks and else-blocks), and linearizing the
    tree gives text that parses back to it."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ALL_COMBOS), st.integers(0, 10 ** 6), st.data())
    def test_derived_sentences_parse_and_round_trip(self, combo, seed, data):
        style, mode = combo
        g = build_grammar(style, mode, seed)
        text = derive(
            render_ebnf(g),
            lambda n: data.draw(st.integers(0, n - 1)),
            lambda pattern: data.draw(st.from_regex(pattern, fullmatch=True)),
        )
        tree = parse(text, g)
        again = linearize(tree, g)
        assert parse(again, g) == tree
        assert linearize(parse(again, g), g) == again
