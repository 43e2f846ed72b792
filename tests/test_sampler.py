"""Sampling guarantees: planted depth, expression shape, determinism."""

import hashlib
import itertools
import random

import pytest

from gridlang.ast import (
    If,
    Literal,
    Loop,
    canon_serialize,
    control_depth,
    expr_depth,
)
from gridlang.grammar import LexiconMode, Style
from gridlang.sampler import (
    LITERAL_MAX,
    GenParams,
    ResampleLimitError,
    _Plan,
    _arith_at,
    _block,
    _cond_at,
    _node,
    generate_instance,
)
from gridlang.world import DEFAULT_BUDGET

from conftest import (
    ALL_COMBOS,
    iter_expressions,
    iter_statements,
    oracle_generate_instance,
    oracle_sample_block,
    oracle_sample_cond,
    oracle_sample_expr,
    oracle_sample_node,
)


class TestGenParams:
    def test_defaults_round_trip(self):
        params = GenParams(max_depth=10, seed=7)
        assert GenParams.from_dict(params.to_dict()) == params

    def test_to_dict_keys(self):
        d = GenParams(max_depth=4, else_prob=0.25, expr_depth=3,
                      max_block=2, seed=9).to_dict()
        assert d == {"D": 4, "p": 0.25, "E": 3, "B_max": 2, "seed": 9}

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 0},
        {"max_depth": 21},
        {"max_depth": 5, "else_prob": -0.1},
        {"max_depth": 5, "else_prob": 1.5},
        {"max_depth": 5, "expr_depth": 0},
        {"max_depth": 5, "expr_depth": 4},
        {"max_depth": 5, "max_block": 0},
        {"max_depth": 5, "node_weights": (0.5, 0.5)},
        {"max_depth": 5, "node_weights": (-1.0, 1.0, 1.0)},
    ])
    def test_invalid_params_rejected(self, kwargs):
        kwargs.setdefault("seed", 0)
        with pytest.raises(ValueError):
            GenParams(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        good = GenParams(max_depth=3, seed=1).to_dict()
        with pytest.raises(ValueError):
            GenParams.from_dict({**good, "extra": 1})
        with pytest.raises(ValueError):
            GenParams.from_dict({k: v for k, v in good.items() if k != "D"})


class TestControlDepthIsExact:
    @pytest.mark.parametrize("depth", [2, 5, 10, 15, 20])
    def test_planted_spine_reaches_exactly_d(self, depth):
        params = GenParams(max_depth=depth, seed=depth * 31)
        for style, mode in ALL_COMBOS:
            _, _, tree = generate_instance(style, mode, params)
            assert control_depth(tree) == depth, (style, mode)

    def test_many_seeds_never_overshoot(self):
        for seed in range(50):
            params = GenParams(max_depth=6, seed=seed)
            _, _, tree = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                           params)
            assert control_depth(tree) == 6


class TestElseProbabilityEndpoints:
    def test_p_zero_means_no_else_branches(self):
        for seed in range(30):
            params = GenParams(max_depth=8, else_prob=0.0, seed=seed)
            _, _, tree = generate_instance(Style.C, LexiconMode.NATURAL,
                                           params)
            for stmt in iter_statements(tree):
                if isinstance(stmt, If):
                    assert stmt.orelse is None

    def test_p_one_means_else_everywhere(self):
        saw_if = False
        for seed in range(30):
            params = GenParams(max_depth=8, else_prob=1.0, seed=seed)
            _, _, tree = generate_instance(Style.C, LexiconMode.NATURAL,
                                           params)
            for stmt in iter_statements(tree):
                if isinstance(stmt, If):
                    saw_if = True
                    assert stmt.orelse is not None
        assert saw_if

    def test_intermediate_p_mixes(self):
        with_else = without = 0
        for seed in range(40):
            params = GenParams(max_depth=8, else_prob=0.5, seed=seed)
            _, _, tree = generate_instance(Style.C, LexiconMode.NATURAL,
                                           params)
            for stmt in iter_statements(tree):
                if isinstance(stmt, If):
                    if stmt.orelse is None:
                        without += 1
                    else:
                        with_else += 1
        assert with_else > 0 and without > 0


class TestExpressionDepthIsExact:
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_every_expression_has_depth_e(self, e):
        for seed in range(25):
            params = GenParams(max_depth=5, expr_depth=e, seed=seed)
            _, _, tree = generate_instance(Style.SEXPR, LexiconMode.NATURAL,
                                           params)
            exprs = list(iter_expressions(tree))
            assert exprs
            for expr in exprs:
                assert expr_depth(expr) == e, expr

    def test_e_one_means_leaves_only(self):
        params = GenParams(max_depth=4, expr_depth=1, seed=11)
        _, _, tree = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                       params)
        for expr in iter_expressions(tree):
            assert isinstance(expr, Literal) or not hasattr(expr, "left")


class TestBlockSizes:
    def test_sizes_bounded_and_cover_range(self):
        params = GenParams(max_depth=3, max_block=3, seed=0)
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            block = _block(0, _Plan(params, rng))
            assert 1 <= len(block) <= 3
            seen.add(len(block))
        assert seen == {1, 2, 3}

    def test_max_block_one_forces_singletons(self):
        params = GenParams(max_depth=3, max_block=1, seed=0)
        for seed in range(50):
            block = _block(0, _Plan(params, random.Random(seed)))
            assert len(block) == 1


class TestLiteralBounds:
    def test_sampled_literals_stay_small(self):
        for seed in range(40):
            params = GenParams(max_depth=6, expr_depth=3, seed=seed)
            _, _, tree = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                           params)
            stack = list(iter_expressions(tree))
            while stack:
                node = stack.pop()
                if isinstance(node, Literal):
                    if not getattr(node, "_omitted_probe", False):
                        assert 0 <= node.value <= LITERAL_MAX
                elif hasattr(node, "left"):
                    stack.extend((node.left, node.right))


class TestDeterminism:
    def test_same_params_same_triple(self):
        params = GenParams(max_depth=9, else_prob=0.3, expr_depth=2,
                           max_block=3, seed=424)
        for style, mode in ALL_COMBOS:
            g1, c1, t1 = generate_instance(style, mode, params)
            g2, c2, t2 = generate_instance(style, mode, params)
            assert g1.terminals == g2.terminals
            assert c1 == c2
            assert t1 == t2

    def test_adjacent_seeds_differ(self):
        codes = set()
        for seed in range(20):
            params = GenParams(max_depth=8, seed=seed)
            _, code, _ = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                           params)
            codes.add(code)
        assert len(codes) >= 19  # near-certain distinctness


class TestBudgetRejection:
    # with loops excluded every tree costs at least one step (the spine
    # bottoms out in an action), so cap = budget // 2 = 0 rejects all
    # attempts regardless of seed
    LOOP_FREE = GenParams(max_depth=3, seed=5, node_weights=(0.7, 0.0, 0.3))

    def test_tiny_budget_exhausts_resampling(self):
        with pytest.raises(ResampleLimitError):
            generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                              self.LOOP_FREE, budget=1)

    def test_error_is_deterministic(self):
        messages = set()
        for _ in range(3):
            try:
                generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                  self.LOOP_FREE, budget=1)
            except ResampleLimitError as exc:
                messages.add(str(exc))
        assert len(messages) == 1

    def test_zero_cost_trees_may_fit_any_budget(self):
        # zero-count loops make genuinely free programs reachable, so a
        # tiny budget does not guarantee rejection under default weights
        params = GenParams(max_depth=10, seed=5)
        _, _, tree = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                       params, budget=1)
        from gridlang.world import step_bound
        assert step_bound(tree, 0) == 0

    def test_default_budget_always_accepts(self):
        params = GenParams(max_depth=20, seed=99)
        _, _, tree = generate_instance(Style.C, LexiconMode.ALIEN, params)
        assert control_depth(tree) == 20


class TestStreamMatchesReference:
    """The sampler draws through ``Random._randbelow`` and ``random``,
    bound once per call; the reference in conftest draws through
    ``randrange`` and ``randint``.  Both return the same trees and leave
    the generator in the same state, so a caller's own draws around them
    are unchanged too."""

    # the default, a spine with neither loop nor if weight, no actions
    WEIGHTS = [(0.7, 0.15, 0.15), (1, 0, 0), (0, 1, 1)]

    @pytest.mark.parametrize("max_block", [1, 3])
    @pytest.mark.parametrize("expr_depth", [1, 2, 3])
    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_sample_functions(self, weights, expr_depth, max_block):
        params = GenParams(max_depth=3, expr_depth=expr_depth,
                           max_block=max_block, node_weights=weights)
        pairs = [
            (lambda rng: _block(1, _Plan(params, rng)),
             lambda rng: oracle_sample_block(1, params, rng)),
            (lambda rng: _node(0, _Plan(params, rng)),
             lambda rng: oracle_sample_node(0, params, rng)),
            (lambda rng: _node(3, _Plan(params, rng)),  # at the depth cap
             lambda rng: oracle_sample_node(3, params, rng)),
            (lambda rng: _arith_at(params.expr_depth, rng._randbelow),
             lambda rng: oracle_sample_expr(params, rng)),
            (lambda rng: _cond_at(params.expr_depth, rng._randbelow),
             lambda rng: oracle_sample_cond(params, rng)),
        ]
        for seed in range(6):
            rng, ref = random.Random(seed), random.Random(seed)
            for draw, oracle in pairs * 2:
                assert draw(rng) == oracle(ref)
                assert rng.getstate() == ref.getstate()
                assert rng.randrange(7) == ref.randrange(7)

    # loop-free trees cost a step at least, so budget 1 exhausts resampling
    @pytest.mark.parametrize("weights", WEIGHTS + [(0.7, 0, 0.3)])
    @pytest.mark.parametrize("combo", ALL_COMBOS)
    def test_generate_instance(self, combo, weights):
        style, mode = combo
        for depth, seed in ((1, 0), (2, 1), (4, 2), (6, 3)):
            params = GenParams(max_depth=depth, seed=seed,
                               node_weights=weights)
            for budget in (1, 100, 1_000_000):
                try:
                    expected = oracle_generate_instance(style, mode, params,
                                                        budget)
                except ResampleLimitError:
                    with pytest.raises(ResampleLimitError):
                        generate_instance(style, mode, params, budget)
                    continue
                assert generate_instance(style, mode, params,
                                         budget) == expected


class TestStreamPinned:
    """One sha256 over the code and canonical tree of every instance in a
    seed x depth x weights matrix, recorded before the draw functions were
    last reworked.  The all-if and equal weights are supercritical, so they
    stop at the depths whose trees stay small enough to draw 50 times; the
    equal-weights cell at budget 100 resamples most attempts."""

    CELLS = [
        ((0.7, 0.15, 0.15), (1, 5, 10, 20), DEFAULT_BUDGET),
        ((1, 0, 0), (1, 5, 10, 20), DEFAULT_BUDGET),
        ((0, 0, 1), (1, 5), DEFAULT_BUDGET),
        ((1, 1, 1), (1, 5, 10), DEFAULT_BUDGET),
        ((1, 1, 1), (5,), 100),
    ]
    SHA256 = (
        "3e84965d85e9e90f234ee4be42ec4164d92c55aeaaeaeb8aaa86b804d100c763")

    def test_matrix_digest(self):
        digest = hashlib.sha256()
        for weights, depths, budget in self.CELLS:
            for depth, seed in itertools.product(depths, range(50)):
                style, mode = ALL_COMBOS[seed % len(ALL_COMBOS)]
                params = GenParams(max_depth=depth, seed=seed,
                                   node_weights=weights)
                try:
                    _g, code, tree = generate_instance(style, mode, params,
                                                       budget)
                except ResampleLimitError as exc:
                    digest.update(f"{exc}\n".encode())
                    continue
                digest.update(f"{code}\0{canon_serialize(tree)}\n".encode())
        assert digest.hexdigest() == self.SHA256
