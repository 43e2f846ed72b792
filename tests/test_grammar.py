"""Lexicon binding, EBNF rendering, and grammar text re-parsing."""

import re

import pytest

from gridlang.grammar import (
    GrammarSpec,
    LexiconMode,
    NATURAL_POOLS,
    PUNCT_ROLES,
    Style,
    TerminalRole as R,
    build_grammar,
    grammar_from_text,
    render_ebnf,
    used_roles,
)

from conftest import ALL_COMBOS, fixed_terminals

ALIEN_SHAPE = re.compile(r"v_[a-z]{4}\Z")


class TestBinding:
    def test_same_seed_same_lexicon(self):
        for style, mode in ALL_COMBOS:
            a = build_grammar(style, mode, 42)
            b = build_grammar(style, mode, 42)
            assert a.terminals == b.terminals

    def test_different_seeds_reach_different_lexicons(self):
        seen = {
            tuple(sorted(
                (r.value, t)
                for r, t in build_grammar(Style.BLOCK, LexiconMode.NATURAL,
                                          seed).terminals.items()
            ))
            for seed in range(30)
        }
        assert len(seen) > 1

    def test_tokens_pairwise_distinct(self):
        for style, mode in ALL_COMBOS:
            for seed in range(25):
                g = build_grammar(style, mode, seed)
                tokens = list(g.terminals.values())
                assert len(tokens) == len(set(tokens)), (style, mode, seed)

    def test_natural_tokens_come_from_their_pools(self):
        for style in Style:
            for seed in range(25):
                g = build_grammar(style, LexiconMode.NATURAL, seed)
                for role, token in g.terminals.items():
                    if role in PUNCT_ROLES:
                        continue
                    assert token in NATURAL_POOLS[role], (role, token)

    def test_alien_keywords_are_opaque_but_punctuation_survives(self):
        for style in Style:
            for seed in range(25):
                g = build_grammar(style, LexiconMode.ALIEN, seed)
                for role, token in g.terminals.items():
                    if role in PUNCT_ROLES:
                        assert token in "{}[]();", (role, token)
                    else:
                        assert ALIEN_SHAPE.match(token), (role, token)

    def test_every_used_role_is_bound(self):
        for style, mode in ALL_COMBOS:
            g = build_grammar(style, mode, 7)
            assert set(g.terminals) == set(used_roles(style))

    def test_semi_only_in_c_style(self):
        assert R.SEMI in used_roles(Style.C)
        assert R.SEMI not in used_roles(Style.BLOCK)
        assert R.SEMI not in used_roles(Style.SEXPR)
        assert R.LBR not in used_roles(Style.SEXPR)

    def test_documented_synonyms_are_reachable(self):
        # bindings seen in worked examples must be drawable options
        assert "act" in NATURAL_POOLS[R.DO]
        assert "fin" in NATURAL_POOLS[R.END]
        assert "repeat" in NATURAL_POOLS[R.LOOP]
        assert "iters" in NATURAL_POOLS[R.TIMES]
        assert "when" in NATURAL_POOLS[R.IF]
        assert "next" in NATURAL_POOLS[R.THEN]
        assert "has" in NATURAL_POOLS[R.HOLDING]
        assert "no" in NATURAL_POOLS[R.NOT]
        assert "alt" in NATURAL_POOLS[R.OR]
        assert "take" in NATURAL_POOLS[R.GRAB]
        assert "go" in NATURAL_POOLS[R.MOVE]

    def test_some_seed_draws_each_loop_synonym(self):
        drawn = {
            build_grammar(Style.BLOCK, LexiconMode.NATURAL,
                          seed).terminals[R.LOOP]
            for seed in range(200)
        }
        assert drawn == set(NATURAL_POOLS[R.LOOP])

    def test_block_bracket_pair_is_matched(self):
        pairs = set()
        for seed in range(50):
            g = build_grammar(Style.BLOCK, LexiconMode.NATURAL, seed)
            pairs.add((g.terminals[R.LBR], g.terminals[R.RBR]))
        assert pairs <= {("[", "]"), ("{", "}")}
        assert len(pairs) == 2  # both pairs drawable


class TestValidation:
    def test_collision_with_item_vocabulary_rejected(self):
        terminals = fixed_terminals(Style.BLOCK, GRAB="take")
        terminals[R.HOLDING] = "has"
        bad = dict(terminals)
        bad[R.DO] = "key"  # shadows an item token
        with pytest.raises(ValueError):
            GrammarSpec(Style.BLOCK, LexiconMode.NATURAL, bad, seed=0)

    def test_duplicate_tokens_rejected(self):
        bad = fixed_terminals(Style.BLOCK, LOOP="times")  # TIMES is "times"
        with pytest.raises(ValueError):
            GrammarSpec(Style.BLOCK, LexiconMode.NATURAL, bad, seed=0)

    def test_missing_role_rejected(self):
        terminals = fixed_terminals(Style.BLOCK)
        del terminals[R.LOOP]
        with pytest.raises(ValueError):
            GrammarSpec(Style.BLOCK, LexiconMode.NATURAL, terminals, seed=0)

    def test_malformed_alien_token_rejected(self):
        terminals = {
            role: (token if role in PUNCT_ROLES else f"v_{chr(97 + i)}xyz")
            for i, (role, token) in
            enumerate(fixed_terminals(Style.BLOCK).items())
        }
        terminals[R.DO] = "v_toolong"
        with pytest.raises(ValueError):
            GrammarSpec(Style.BLOCK, LexiconMode.ALIEN, terminals, seed=0)


class TestRendering:
    def test_block_skeleton_lines(self):
        text = render_ebnf(build_grammar(Style.BLOCK, LexiconMode.NATURAL, 3))
        for line in (
            "start: stmt+",
            "stmt: action_stmt | loop | if_stmt",
            "action_stmt: DO action END",
            "loop: LOOP expr TIMES LBR stmt+ RBR",
            "if_stmt: IF cond THEN LBR stmt+ RBR (ELSE LBR stmt+ RBR)?",
            "action: MOVE MOVE_DIR expr? | TURN TURN_DIR | GRAB ITEM",
            "expr: INT | PAR_L expr op_arith expr PAR_R",
            "MOVE_DIR: DIR_FWD | DIR_BWD",
            "INT: /[0-9]+/",
            "ITEM: /(item|key|box|ball|cube)(_[0-4])?/",
        ):
            assert line in text.splitlines(), line

    def test_c_style_skeleton_lines(self):
        text = render_ebnf(build_grammar(Style.C, LexiconMode.NATURAL, 3))
        lines = text.splitlines()
        assert "action_stmt: action SEMI" in lines
        assert "loop: LOOP PAR_L expr PAR_R LBR stmt* RBR" in lines

    def test_sexpr_skeleton_lines(self):
        text = render_ebnf(build_grammar(Style.SEXPR, LexiconMode.NATURAL, 3))
        lines = text.splitlines()
        assert "action_stmt: PAR_L action PAR_R" in lines
        assert "loop: PAR_L LOOP expr stmt+ PAR_R" in lines
        assert "expr: INT | PAR_L op_arith expr expr PAR_R" in lines

    def test_every_binding_printed_once(self):
        for style, mode in ALL_COMBOS:
            g = build_grammar(style, mode, 11)
            lines = render_ebnf(g).splitlines()
            for role, token in g.terminals.items():
                assert f'{role.value}: "{token}"' in lines

    def test_render_deterministic(self):
        g = build_grammar(Style.BLOCK, LexiconMode.ALIEN, 5)
        assert render_ebnf(g) == render_ebnf(g)


class TestGrammarFromText:
    def test_round_trip_all_combos(self):
        for style, mode in ALL_COMBOS:
            g = build_grammar(style, mode, 13)
            back = grammar_from_text(style, mode, render_ebnf(g))
            assert back.terminals == g.terminals

    def test_missing_binding_line_rejected(self):
        g = build_grammar(Style.BLOCK, LexiconMode.NATURAL, 13)
        text = "\n".join(
            line for line in render_ebnf(g).splitlines()
            if not line.startswith("LOOP:")
        )
        with pytest.raises(ValueError):
            grammar_from_text(Style.BLOCK, LexiconMode.NATURAL, text)

    def test_altered_production_line_rejected(self):
        g = build_grammar(Style.C, LexiconMode.NATURAL, 13)
        text = render_ebnf(g).replace(
            "loop: LOOP PAR_L expr PAR_R LBR stmt* RBR",
            "loop: LOOP PAR_L expr PAR_R LBR stmt+ RBR")
        assert text != render_ebnf(g)
        with pytest.raises(ValueError):
            grammar_from_text(Style.C, LexiconMode.NATURAL, text)

