"""Tokenizer behavior, style-faithful rendering, and parse round-trips."""

import functools
import gc
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    ITEM_VOCAB,
    MAX_NESTING,
    ActionStmt,
    ArithOp,
    BinaryArith,
    BinaryBool,
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
    Turn,
    TurnDir,
    canon_parse,
    canon_serialize,
)
from gridlang.codec import (
    ParseError,
    linearize,
    parse,
    render_canonical,
    tokenize,
)
from gridlang.grammar import (
    LexiconMode,
    Style,
    TerminalRole as R,
    build_grammar,
    render_ebnf,
)
from gridlang.harness import _flatten_program
from gridlang.sampler import GenParams, generate_instance
from gridlang.tasks import PerturbationError, perturb

from conftest import (
    ALL_COMBOS,
    bracket_depth,
    deep_surface,
    derive,
    fixed_grammar,
    oracle_linearize,
    oracle_parse,
    oracle_render_canonical,
    oracle_words,
)

BLOCK_G = fixed_grammar(Style.BLOCK)
C_G = fixed_grammar(Style.C)
SEXPR_G = fixed_grammar(Style.SEXPR)

REFERENCE_PROGRAM = Program((
    ActionStmt(Turn(TurnDir.LEFT)),
    ActionStmt(Move(MoveDir.FORWARD, Literal(1))),
    ActionStmt(Grab("key_2")),
    Loop(BinaryArith(ArithOp.ADD,
                     BinaryArith(ArithOp.MUL, Literal(4), Literal(4)),
                     Literal(3)),
         (ActionStmt(Turn(TurnDir.LEFT)),)),
    If(Not(BinaryBool(BoolOp.AND, Holding("cube_0"), Holding("cube_4"))),
       (ActionStmt(Move(MoveDir.BACKWARD,
                        BinaryArith(ArithOp.MUL, Literal(2), Literal(4)))),),
       (ActionStmt(Turn(TurnDir.RIGHT)),)),
))

BLOCK_SURFACE = """\
do turn left end
do move forward 1 end
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
move forward 1;
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
(move forward 1)
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
        words, _syms, _starts = tokenize("repeat(3+4)iters", g)
        assert words == [
            "repeat", "(", "3", "+", "4", ")", "iters"
        ]
        assert len(words) == 7

    def test_token_kinds(self):
        _words, syms, _starts = tokenize("loop 3 key_2 { zzz", BLOCK_G)
        assert syms == [R.LOOP, "INT", "ITEM", R.LBR, None]

    def test_offsets_slice_source(self):
        text = "do  grab\tkey end"
        words, _syms, starts = tokenize(text, BLOCK_G)
        for word, start in zip(words, starts):
            assert text[start:start + len(word)] == word

    def test_tokenizer_never_fails(self):
        assert tokenize("", BLOCK_G) == ([], [], [])
        assert tokenize("@#%", BLOCK_G)[1] == [None] * 3

    def test_trailing_space_costs_linear_time(self):
        # a search retried at each character of the run is quadratic in
        # its length: seconds for a few thousand characters
        text = BLOCK_SURFACE + " \t\n" * 6667
        start = time.perf_counter()
        tokens = tokenize(text, BLOCK_G)
        assert time.perf_counter() - start < 0.5
        assert tokens == tokenize(text.rstrip(), BLOCK_G)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([
        "loop", "key_2", "7", "zz", "_", "{", "(", ";", "@", "+", "`",
        "\u00e9", "\u0663", " ", "\t", "\n", "\x1c", "\u00a0", "\u2028",
        "\u3000", "\u200b"]), max_size=20).map("".join))
    def test_spans_are_the_token_pattern_matches(self, text):
        # words of ASCII letters, digits and _, else single non-space
        # characters, with Unicode space between them
        spans = [(m.group(), m.start(), m.end()) for m in
                 re.finditer(r"[A-Za-z0-9_]+|\S", text)]
        words, _syms, starts = tokenize(text, BLOCK_G)
        assert [(word, start, start + len(word))
                for word, start in zip(words, starts)] == spans


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
                          Not(Holding("ball_3")),
                          BinaryBool(BoolOp.AND,
                                     Holding("item"),
                                     Holding("ball_2"))),
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

    @pytest.mark.parametrize("digits", [1, 5000])  # accepted, int() refuses
    def test_parsing_leaves_no_cyclic_garbage(self, digits):
        _, code, tree = generate_instance(Style.C, LexiconMode.NATURAL,
                                          GenParams(max_depth=10, seed=3))
        code = code.replace("(", "(" + "1" * digits + " + ", 1)
        text = canon_serialize(tree).replace("(int ", "(int " + "1" * digits,
                                             1)
        gc.collect()
        gc.disable()
        try:
            for run in (lambda: parse(code, C_G), lambda: canon_parse(text)):
                try:
                    run()
                except ValueError:
                    pass
                assert gc.collect() == 0
        finally:
            gc.enable()


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
        ActionStmt(Grab("key")),
        ActionStmt(Grab("key_1")),
        ActionStmt(Move(MoveDir.FORWARD, Literal(2))),
        ActionStmt(Move(MoveDir.BACKWARD, Literal(2))),
        ActionStmt(Move(MoveDir.FORWARD, Literal(3))),
        ActionStmt(Move(MoveDir.FORWARD, Literal(1))),
        ActionStmt(Move(MoveDir.FORWARD,
                        BinaryArith(ArithOp.ADD, Literal(1), Literal(2)))),
        ActionStmt(Move(MoveDir.FORWARD,
                        BinaryArith(ArithOp.MUL, Literal(1), Literal(2)))),
    ]
    stmts = list(actions)
    for action in actions[:4]:
        stmts.append(Loop(Literal(2), (action,)))
        stmts.append(If(Holding("box"), (action,), None))
        stmts.append(If(Holding("box"), (action,), (actions[0],)))
        stmts.append(If(Not(Holding("box")), (action,), None))
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
        assert tokenize("\u0663", BLOCK_G)[1] == [None]
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
        words = tokenize(text, g)[0]
        opened = words[:info.value.position + 1]
        assert opened[-1] in "([{"
        assert bracket_depth("".join(opened)) == MAX_NESTING + 1

    TOO_DEEP = f"at most {MAX_NESTING} nested brackets"

    def test_megabyte_of_parens_rejected_at_the_first_too_deep(self):
        text = "(" * 2 ** 20
        for style in Style:
            with pytest.raises(ParseError) as info:
                parse(text, fixed_grammar(style))
            assert (info.value.position, info.value.expected,
                    info.value.found) == (100, self.TOO_DEEP, "'('")
        with pytest.raises(ParseError) as info:
            canon_parse(text)
        assert (info.value.position, info.value.expected,
                info.value.found) == (100, self.TOO_DEEP, "'('")
        assert str(info.value) == \
            f"at token 100: expected {self.TOO_DEEP}, found '('"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["(", "[", "{", ")", "]", "}", "(" * 30, "[{" * 15, "({[" * 10,
         "x", "move", "7", " ", "\n  ", "\u00e9", "\U0001f600", "\ud800"]),
        max_size=60))
    def test_mixed_runs_rejected_at_the_first_word_too_deep(self, pieces):
        # the reference counts depth word by word, as the parser did before
        # it read depth from the bracket characters alone
        text = "".join(pieces)
        depth, first = 0, None
        for position, word in enumerate(re.findall(r"[A-Za-z0-9_]+|\S",
                                                   text)):
            depth += (word in ("(", "[", "{")) - (word in (")", "]", "}"))
            if depth > MAX_NESTING:
                first = position, self.TOO_DEEP, repr(word)
                break
        for style in Style:
            try:
                parse(text, fixed_grammar(style))
            except ParseError as err:
                if first is None:
                    assert err.expected != self.TOO_DEEP
                else:
                    assert (err.position, err.expected, err.found) == first
            else:
                assert first is None
        try:
            canon_parse(text)
        except ParseError as err:
            if first is None:
                assert err.expected != self.TOO_DEEP
            else:
                assert (err.position, err.expected, err.found) == first
                assert str(err) == (f"at token {first[0]}: expected "
                                    f"{first[1]}, found {first[2]}")
        else:
            assert first is None


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


@functools.lru_cache(maxsize=None)
def _gold(style, mode, depth, seed):
    return generate_instance(style, mode, GenParams(max_depth=depth,
                                                    seed=seed))[:2]


def _outcome(parser, text, g):
    """The tree with its canonical text (which keeps omitted move counts),
    or the rejection's position, expectation and found text."""
    try:
        tree = parser(text, g)
    except ParseError as err:
        return err.position, err.expected, err.found
    return tree, canon_serialize(tree)


class TestReferenceParser:
    """``parse`` runs functions generated from the rule table; the
    reference in conftest interprets the same table item by item.  They
    agree on every input: the tree, or where and why it is rejected."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(ALL_COMBOS), st.data())
    def test_parse_matches_reference(self, combo, data):
        style, mode = combo
        base = data.draw(st.sampled_from(["derive", "gold", "perturb",
                                          "soup"]))
        if base == "derive":
            g = build_grammar(style, mode, data.draw(st.integers(0, 10 ** 6)))
            text = derive(
                render_ebnf(g),
                lambda n: data.draw(st.integers(0, n - 1)),
                lambda pattern: data.draw(st.from_regex(pattern,
                                                        fullmatch=True)),
            )
        elif base == "soup":
            g = build_grammar(style, mode, data.draw(st.integers(0, 10 ** 6)))
            vocabulary = sorted(g.terminals.values()) + sorted(ITEM_VOCAB) + [
                "0", "7", "12", "\u0663", "\u00b2", "9" * 5000, "(" * 150,
                "zz", "@", "[", "]", "{", "}", "(", ")", ";"]
            text = " ".join(data.draw(st.lists(st.sampled_from(vocabulary),
                                               max_size=60)))
        else:
            g, text = _gold(style, mode, data.draw(st.sampled_from(
                [2, 5, 10, 20])), data.draw(st.integers(0, 2)))
            if base == "perturb":
                rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
                try:
                    text, _category = perturb(text, g, rng)
                except PerturbationError:
                    pass
        words = tokenize(text, g)[0]
        edit = data.draw(st.sampled_from(["none", "delete", "duplicate",
                                          "prefix", "literal"]))
        if edit != "none" and words:
            k = data.draw(st.integers(0, len(words) - 1))
            if edit == "delete":
                del words[k]
            elif edit == "duplicate":
                words.insert(k, words[k])
            elif edit == "prefix":
                words = words[:k]
            else:  # where a count stands, one that INT or int() refuses
                counts = [i for i, word in enumerate(words) if word.isdigit()]
                words[data.draw(st.sampled_from(counts or [k]))] = \
                    data.draw(st.sampled_from(["\u0663", "\u00b2",
                                               "9" * 5000]))
            text = " ".join(words)
        assert _outcome(parse, text, g) == _outcome(oracle_parse, text, g)


# the symbol ``tokenize`` gives a word of each reference kind
_KIND_SYMBOL = {"int": "INT", "item": "ITEM", "unknown": None}


class TestTokenizeMatchesReference:
    """``tokenize`` splits and classifies as the reference splitter in
    conftest does, its offsets slice the text, and a parse rejection
    names the word at its position."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(ALL_COMBOS), st.data())
    def test_tokenize_matches_reference(self, combo, data):
        style, mode = combo
        base = data.draw(st.sampled_from(["gold", "soup", "text"]))
        if base == "gold":
            g, text = _gold(style, mode, data.draw(st.sampled_from(
                [2, 5, 10])), data.draw(st.integers(0, 2)))
        else:
            g = build_grammar(style, mode, data.draw(st.integers(0, 10 ** 6)))
            if base == "soup":
                vocabulary = sorted(g.terminals.values()) + [
                    "key_2", "box", "0", "12", "\u0663", "\u00b2", "zz",
                    "@", "[", "]", "{", "}", "(", ")", ";", "+", "*"]
                spaces = st.sampled_from(["", " ", "\n", "\t", "\u00a0",
                                          "\u3000"])
                text = "".join(data.draw(st.lists(
                    st.tuples(spaces, st.sampled_from(vocabulary)).map(
                        "".join), max_size=40)))
            else:
                text = data.draw(st.text(max_size=60))
        words, syms, starts = tokenize(text, g)
        reference = oracle_words(text, g)
        assert words == [w.text for w in reference]
        assert starts == [w.start for w in reference]
        for word, sym, start, ref in zip(words, syms, starts, reference):
            assert text[start:start + len(word)] == word
            assert sym == (ref.role if ref.role is not None
                           else _KIND_SYMBOL.get(ref.kind))
        try:
            parse(text, g)
        except ParseError as err:
            assert err.found == (repr(words[err.position])
                                 if err.position < len(words)
                                 else "end of input")


class TestReferenceLinearizer:
    """``linearize`` and ``render_canonical`` run functions generated from
    the rule tables; the reference in conftest interprets layout pieces
    built from the same tables and spells roles with one ``str.format``.
    They agree byte for byte."""

    @staticmethod
    def _agree(tree, g) -> None:
        assert linearize(tree, g) == oracle_linearize(tree, g)
        assert render_canonical(tree) == oracle_render_canonical(tree)

    @pytest.mark.parametrize("depth", [1, 2, 10, 20])
    @pytest.mark.parametrize("combo", ALL_COMBOS)
    def test_sampled_trees(self, combo, depth):
        style, mode = combo
        for seed in range(3):
            g, code, tree = generate_instance(
                style, mode, GenParams(max_depth=depth, seed=seed))
            assert code == oracle_linearize(tree, g)
            self._agree(tree, g)
            # the same tree under another lexicon, e.g. the other brackets
            self._agree(tree, build_grammar(style, mode, seed + 1000))

    @pytest.mark.parametrize("style, text", [
        (Style.C, "loop (3) { }"),
        (Style.C, "if (holding key) { } else { }"),
        (Style.C, "if (not (holding box_2)) { }"),
        (Style.C, "loop (3) { if ((holding key and holding ball)) { } "
                  "else { move forward; } }"),
        (Style.C, "move forward; move backward 2;"),
        (Style.BLOCK, "do move forward end do turn left end"),
        (Style.BLOCK, "if holding key then [ do move backward end ]"),
        (Style.SEXPR, "(move forward) (if (holding cube) then "
                      "(move backward) else (grab item_0))"),
        (Style.C, "move forward 1000000; loop (19) { grab key; }"),
        (Style.SEXPR, "(loop 10 (move forward (+ 10 250)))"),
    ])
    def test_parsed_trees(self, style, text):
        # empty C blocks, omitted move counts and literals of 10 or more
        g = fixed_grammar(style)
        if style is Style.BLOCK:
            g = fixed_grammar(style, LBR="[", RBR="]")
        self._agree(parse(text, g), g)

    @pytest.mark.parametrize("combo", ALL_COMBOS)
    def test_flattened_trees(self, combo):
        style, mode = combo
        large = 0
        for seed in range(6):
            g, _, tree = generate_instance(
                style, mode, GenParams(max_depth=10, expr_depth=3, seed=seed))
            flat = _flatten_program(tree)
            large += bool(re.search(r"\(int [1-9][0-9]+\)",
                                    render_canonical(flat)))
            self._agree(flat, g)
        assert large, "no flattened literal of 10 or more"
