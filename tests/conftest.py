"""Shared test helpers: pinned lexicons, independent tree walkers, a
reference word splitter, a reference answer extractor, a reference parser
and linearizer, a hand-written reference for the canonical tree form, a
reference sampler, a reference perturber, a random derivation generator
that reads the rendered EBNF text, and a strict reader of the answer
cache's logs.

The walkers here deliberately reimplement traversal (iteratively, with an
explicit stack), the reference splitter has its own word pattern and its
own reading of each word, which the reference answer extractor and
perturber pick from, the reference parser and linearizer interpret the
rule table item by item instead of running the codec's generated
functions, the reference sampler draws through ``randrange``/``randint``
rather than the bound ``_randbelow``, and the generator reads the grammar
text with its own reader, so tests never validate library code against
itself.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from gridlang.ast import (
    MAX_NESTING,
    ITEM_VOCAB,
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
)
from gridlang.codec import (
    _BY_ALT,
    _LEAVES,
    _LITERALS,
    _MAKERS,
    _NESTING_STEP,
    _NODES,
    ParseError,
    _group,
    _slots,
    linearize,
    parse,
)
from gridlang.grammar import (
    CANON_RULES,
    CANON_TERMINALS,
    RULE_TABLES,
    GrammarSpec,
    LexiconMode,
    NATURAL_POOLS,
    PUNCT_ROLES,
    RuleTable,
    Style,
    TerminalRole as R,
    build_grammar,
    used_roles,
)
from gridlang.sampler import LITERAL_MAX, RESAMPLE_LIMIT, ResampleLimitError
from gridlang.seeding import derive_seed
from gridlang.tasks import PerturbCategory, PerturbationError
from gridlang.world import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    Facing,
    Final,
    RobotState,
    START_STATE,
    step_bound,
)

ALL_COMBOS = tuple(itertools.product(Style, LexiconMode))

# words that name no item; every door that reads an item refuses each one
NON_ITEMS = ("key_9", "stone", "key_12", "key_x", "bogus", "key_\u0663",
             "key_", "bogus_3", "rock", "key_5")

_PUNCT_DEFAULTS = {R.LBR: "{", R.RBR: "}", R.PAR_L: "(", R.PAR_R: ")",
                   R.SEMI: ";"}


def fixed_terminals(style: Style, **overrides: str) -> dict:
    """First pool option per role, punctuation structural; overridable."""
    terminals = {}
    for role in used_roles(style):
        if role in _PUNCT_DEFAULTS:
            terminals[role] = _PUNCT_DEFAULTS[role]
        else:
            terminals[role] = NATURAL_POOLS[role][0]
    for name, token in overrides.items():
        terminals[R[name]] = token
    return terminals


def fixed_grammar(style: Style = Style.BLOCK, **overrides: str) -> GrammarSpec:
    return GrammarSpec(style, LexiconMode.NATURAL,
                       fixed_terminals(style, **overrides))


def iter_statements(program: Program):
    """Every statement in the tree, iteratively (independent oracle)."""
    stack = list(program.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, Loop):
            stack.extend(stmt.body)
        elif isinstance(stmt, If):
            stack.extend(stmt.then)
            if stmt.orelse is not None:
                stack.extend(stmt.orelse)


def iter_expressions(program: Program):
    """Every arithmetic expression and condition embedded in the tree."""
    for stmt in iter_statements(program):
        if isinstance(stmt, ActionStmt):
            if isinstance(stmt.action, Move):
                yield stmt.action.steps
        elif isinstance(stmt, Loop):
            yield stmt.count
        elif isinstance(stmt, If):
            yield stmt.cond


def oracle_control_depth(program: Program) -> int:
    """Max control nesting, computed by explicit depth-tagged traversal."""
    best = 0
    stack = [(stmt, 1) for stmt in program.body]
    while stack:
        stmt, depth = stack.pop()
        if isinstance(stmt, Loop):
            best = max(best, depth)
            stack.extend((s, depth + 1) for s in stmt.body)
        elif isinstance(stmt, If):
            best = max(best, depth)
            stack.extend((s, depth + 1) for s in stmt.then)
            if stmt.orelse is not None:
                stack.extend((s, depth + 1) for s in stmt.orelse)
    return best


_CLOCKWISE = [Facing.N, Facing.E, Facing.S, Facing.W]
_HEADING = {Facing.N: (0, 1), Facing.E: (1, 0), Facing.S: (0, -1),
            Facing.W: (-1, 0)}


def _oracle_value(expr) -> int:
    if isinstance(expr, Literal):
        return expr.value
    left, right = _oracle_value(expr.left), _oracle_value(expr.right)
    return left + right if expr.op is ArithOp.ADD else left * right


def _oracle_truth(cond, held: list) -> bool:
    if isinstance(cond, Holding):
        return cond.item in held
    if isinstance(cond, Not):
        return not _oracle_truth(cond.inner, held)
    left = _oracle_truth(cond.left, held)
    right = _oracle_truth(cond.right, held)
    return (left and right) if cond.op is BoolOp.AND else (left or right)


def oracle_exec(program: Program, state: RobotState = START_STATE,
                budget: int = DEFAULT_BUDGET):
    """Naive interpreter: every iteration, one action at a time.

    Runs from an explicit stack of statement iterators and keeps one
    inventory entry per copy, sharing no code with ``exec_program``; its
    cost grows with the steps taken, so use it on small programs only.
    """
    x, y, facing = state.x, state.y, state.facing
    held = [item for item, count in state.inventory for _ in range(count)]
    steps = 0
    stack = [iter(program.body)]
    while stack:
        stmt = next(stack[-1], None)
        if stmt is None:
            stack.pop()
        elif isinstance(stmt, Loop):
            count = _oracle_value(stmt.count)  # evaluated once, on entry
            stack.append(itertools.chain.from_iterable(
                itertools.repeat(stmt.body, count)))
        elif isinstance(stmt, If):
            taken = _oracle_truth(stmt.cond, held)
            stack.append(iter(stmt.then if taken else stmt.orelse or ()))
        else:
            steps += 1
            if steps > budget:
                return BudgetExceeded()
            action = stmt.action
            if isinstance(action, Move):
                n = _oracle_value(action.steps)
                if action.dir is MoveDir.BACKWARD:
                    n = -n
                dx, dy = _HEADING[facing]
                x, y = x + dx * n, y + dy * n
            elif isinstance(action, Grab):
                held.append(action.item)
            else:
                turn = 1 if action.dir is TurnDir.RIGHT else -1
                facing = _CLOCKWISE[(_CLOCKWISE.index(facing) + turn) % 4]
    return Final(RobotState(x, y, facing, tuple(Counter(held).items())),
                 steps)


# --- reference word splitter -----------------------------------------------
# Words of ASCII letters, digits and _, else single non-space characters.
# A word's kind is "punct" for a bracket or separator character, else
# "keyword" when the grammar binds it, else "int" for ASCII digits, else
# "item" for an item name, else "unknown"; its role is the one the grammar
# binds it to, if any.

_ORACLE_WORD_RE = re.compile(r"[A-Za-z0-9_]+|\S")
_ORACLE_PUNCT = frozenset("[]{}();")
_ORACLE_ITEMS = frozenset(ITEM_VOCAB)


class OracleWord(NamedTuple):
    text: str
    kind: str
    role: R | None
    start: int
    end: int


def oracle_words(text: str, g: GrammarSpec) -> list[OracleWord]:
    roles = {token: role for role, token in g.terminals.items()}
    words = []
    for m in _ORACLE_WORD_RE.finditer(text):
        word = m.group()
        if word in _ORACLE_PUNCT:
            kind = "punct"
        elif word in roles:
            kind = "keyword"
        elif word.isascii() and word.isdigit():
            kind = "int"
        elif word in _ORACLE_ITEMS:
            kind = "item"
        else:
            kind = "unknown"
        words.append(OracleWord(word, kind, roles.get(word), m.start(),
                                m.end()))
    return words


# --- reference answer extraction ---------------------------------------------

# the fenced blocks ``extract_code`` reads, as a pattern; it backtracks
# quadratically on backticks no newline follows, so keep inputs short
FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def oracle_extract_code(raw: str, g: GrammarSpec) -> str:
    """``extract_code`` by its definition: the last fenced block, else the
    longest trailing run of known words of the whole text, else the text."""
    fences = FENCE_RE.findall(raw)
    if fences:
        return fences[-1].strip("\n")
    words = oracle_words(raw, g)
    known = list(itertools.takewhile(
        lambda word: word.kind != "unknown", reversed(words)))
    if not known or len(known) == len(words):
        return raw
    return raw[known[-1].start:]


# --- reference parser --------------------------------------------------------

# A compiled alternative is (items, width, make): ``items`` are (is_rule,
# ref, quant, slot, convert), ``width`` counts the value slots and ``make``
# builds the node from them (None passes slot 0 on).  A terminal that fills
# a slot puts ``convert(word)`` there.


def _oracle_rules(table: RuleTable) -> dict[str, tuple]:
    rules = {}
    for rule, alts in table.rules.items():
        compiled = []
        for k, alt in enumerate(alts):
            items = []
            for sym, slot in zip(alt, _slots(table, rule, k)):
                if sym.kind == "class":
                    convert = _LITERALS[sym.ref][0]
                elif slot is not None and sym.kind == "role":
                    convert = (lambda _, leaf=_LEAVES[sym.ref]: leaf)
                else:
                    convert = None
                items.append((sym.kind == "rule", sym.ref, sym.quant, slot,
                              convert))
            cls = _BY_ALT.get((rule, k))
            compiled.append((tuple(items), len(_NODES[cls][2]) if cls else 1,
                             cls and _MAKERS.get(cls, cls)))
        rules[rule] = tuple(compiled)
    return rules


_ORACLE_RULES = {style: _oracle_rules(table)
                 for style, table in RULE_TABLES.items()}


# word characters clump, every other non-space character stands alone
_ORACLE_WORD_RE = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")


def oracle_parse(code: str, g: GrammarSpec) -> Program:
    """Reference parser: interprets the rule table one item at a time.

    Same language and same rejections (``position``, ``expected``,
    ``found``) as ``codec.parse``, which runs functions generated from the
    table instead; it classifies every word afresh, with no per-word table.
    """
    words = _ORACLE_WORD_RE.findall(code)
    if words.count("(") + words.count("[") + words.count("{") > MAX_NESTING:
        depth = 0
        for position, word in enumerate(words):
            depth += _NESTING_STEP.get(word, 0)
            if depth > MAX_NESTING:
                raise ParseError(position, f"at most {MAX_NESTING} nested "
                                 "brackets", repr(word))
    rules, n = _ORACLE_RULES[g.style], len(words)
    classes = RULE_TABLES[g.style].classes

    def classify(word: str):
        sym = g.keyword_roles.get(word)
        if sym is None:
            for name, pattern in classes.items():
                if pattern.fullmatch(word):
                    return name
        return sym

    syms = [classify(word) for word in words]
    far, want = 0, "statement"  # furthest token a terminal failed at

    def rule(name: str, i: int):
        """(value, next position), or None when no alternative matches."""
        nonlocal far, want
        for items, width, make in rules[name]:
            values = [None] * width
            j = i
            for is_rule, ref, quant, slot, convert in items:
                if is_rule:
                    result = rule(ref, j)
                    if quant == "*" or quant == "+":
                        block = []
                        while result is not None:
                            block.append(result[0])
                            j = result[1]
                            result = rule(ref, j)
                        if block or quant == "*":
                            result = tuple(block), j
                    if result is not None:
                        values[slot], j = result
                    elif quant != "?":
                        break
                elif j < n and syms[j] == ref:
                    if slot is not None:
                        try:
                            values[slot] = convert(words[j])
                        except ValueError:  # e.g. past int()'s digit limit
                            raise ParseError(j, ref, repr(words[j])) from None
                    j += 1
                elif not quant:
                    if j >= far:
                        far, want = j, ref
                    break
            else:
                return (values[0] if make is None else make(*values)), j
        return None

    result = rule("start", 0)
    if result is not None:
        if result[1] == n:
            return result[0]
        if result[1] >= far:
            far, want = result[1], "end of input"
    found = repr(words[far]) if far < n else "end of input"
    raise ParseError(far, repr(g.token(want)) if isinstance(want, R) else want,
                     found)


# --- reference linearizer ----------------------------------------------------
# Each AST class's layout as a tuple of pieces that ``_oracle_emit``
# interprets one at a time; a style's roles are spelled as numbered format
# fields that one ``str.format`` fills in at the end.  ``codec.linearize``
# and ``codec.render_canonical`` run functions generated from the same
# rule tables instead.

# Template piece ops; plain strings are literal text.
_NODE, _TEXT, _BLOCK, _OPTIONAL = range(4)


def oracle_linearize(program: Program, g: GrammarSpec) -> str:
    """``linearize`` by interpreting the layout pieces."""
    text = _oracle_render(program, _ORACLE_LAYOUTS[g.style]).format(
        *[g.terminals[role] for role in used_roles(g.style)])
    return text.strip("\n")


def oracle_render_canonical(program: Program) -> str:
    """``render_canonical`` by interpreting the layout pieces."""
    return _oracle_render(program, _ORACLE_CANON_LAYOUT)


def _oracle_render(program: Program, templates: dict) -> str:
    out: list[str] = []
    _oracle_emit(program, templates[Program], "", out, templates)
    return "".join(out)


def _oracle_emit(node, pieces: tuple, pad: str, out: list[str],
                 templates: dict) -> None:
    for piece in pieces:
        if piece.__class__ is str:
            out.append(piece)
            continue
        op, get, arg = piece
        if op is _NODE:
            child = get(node)
            _oracle_emit(child, templates[child.__class__], pad, out,
                         templates)
        elif op is _TEXT:
            out.append(arg(get(node)))
        elif op is _BLOCK:
            if arg is None:  # one line, statements apart by single spaces
                for n, stmt in enumerate(get(node)):
                    if n:
                        out.append(" ")
                    _oracle_emit(stmt, templates[stmt.__class__], pad, out,
                                 templates)
                continue
            inner = pad + arg
            for stmt in get(node):
                out.append("\n" + inner)
                _oracle_emit(stmt, templates[stmt.__class__], inner, out,
                             templates)
            out.append("\n" + pad)  # the token after a block
        elif get(node) is not None:  # _OPTIONAL: arg spells it when present
            _oracle_emit(node, arg, pad, out, templates)


def _oracle_layout(table: RuleTable, spell: dict[R, str],
                   one_line: bool = False) -> dict[type, tuple]:
    """Per AST class the pieces that spell it, each role as ``spell`` has
    it; ``one_line`` keeps each block on the line."""
    layouts = {}
    for cls, (rule, k, _) in _NODES.items():
        attrs = [f.name for f in fields(cls)]
        getters = [None if slot is None else attrgetter(attrs[slot])
                   for slot in _slots(table, rule, k)]
        indent = None if one_line else "" if rule == "start" else "  "
        layouts[cls] = _oracle_pieces(table, table.rules[rule][k], getters,
                                      spell, indent)
    return layouts


def _oracle_pieces(table: RuleTable, items: tuple, getters: list,
                   spell: dict, indent: str | None) -> tuple:
    """Lay out one alternative, merging adjacent literal text; an indent
    of None keeps blocks on one line."""
    pieces: list = []
    prev = None
    for sym, get in zip(items, getters):
        if sym.kind == "role":
            spelled = [spell[sym.ref]]
        elif sym.kind == "class":
            spelled = [(_TEXT, get, _LITERALS[sym.ref][1])]
        elif sym.quant in ("*", "+"):
            spelled = [(_BLOCK, get, indent)]
        elif _group(table, sym):
            alt = _group(table, sym)
            spelled = list(_oracle_pieces(table, alt, [get] * len(alt),
                                          spell, indent))
        elif all(alt[0].ref in _LEAVES for alt in table.rules[sym.ref]):
            spelled = [(_TEXT, get, {
                _LEAVES[alt[0].ref]: spell[alt[0].ref]
                for alt in table.rules[sym.ref]}.__getitem__)]
        else:
            spelled = [(_NODE, get, None)]
        sep = [] if prev is None else _oracle_separator(table, prev, sym,
                                                        indent is None)
        if sym.quant == "?":
            pieces.append((_OPTIONAL, get, _oracle_merge(sep + spelled)))
        else:
            pieces.extend(sep + spelled)
            prev = sym
    return _oracle_merge(pieces)


def _oracle_separator(table: RuleTable, a, b, one_line: bool) -> list[str]:
    a = (_group(table, a) or (a,))[-1]
    b = (_group(table, b) or (b,))[0]
    if a.ref is R.PAR_L or b.ref in (R.PAR_R, R.SEMI) or not one_line and (
            a.quant in ("*", "+") or b.quant in ("*", "+")):
        return []
    return [" "]


def _oracle_merge(pieces: list) -> tuple:
    merged: list = []
    for piece in pieces:
        if piece.__class__ is str and merged and merged[-1].__class__ is str:
            merged[-1] += piece
        else:
            merged.append(piece)
    return tuple(merged)


_ORACLE_LAYOUTS = {style: _oracle_layout(RULE_TABLES[style], {
    role: "{%d}" % k for k, role in enumerate(used_roles(style))})
    for style in RULE_TABLES}
_ORACLE_CANON_LAYOUT = _oracle_layout(CANON_RULES, CANON_TERMINALS,
                                      one_line=True)


# --- reference sampler -------------------------------------------------------
# The sampler as it drew through ``randrange``/``randint``; ``gridlang.
# sampler`` must return the same trees and leave the generator in the same
# state.

# the sampler's statement kind weights (action, loop, if); the free draws
# take others too, to fuzz the interpreter over other tree shapes
ORACLE_WEIGHTS = (0.7, 0.15, 0.15)


def _oracle_weighted_index(rng: random.Random, weights: tuple) -> int:
    r = rng.random() * sum(weights)
    acc = 0.0
    for idx, w in enumerate(weights):
        acc += w
        if r < acc:
            return idx
    return len(weights) - 1


def oracle_sample_expr(params, rng: random.Random):
    return _oracle_arith_at(params.expr_depth, rng)


def _oracle_arith_at(depth: int, rng: random.Random):
    if depth == 1:
        return Literal(rng.randint(0, LITERAL_MAX))
    op = ArithOp.ADD if rng.randrange(2) == 0 else ArithOp.MUL
    full_left = rng.randrange(2) == 0
    other_depth = rng.randint(1, depth - 1)
    full = _oracle_arith_at(depth - 1, rng)
    other = _oracle_arith_at(other_depth, rng)
    if full_left:
        return BinaryArith(op, full, other)
    return BinaryArith(op, other, full)


def oracle_sample_cond(params, rng: random.Random):
    return _oracle_cond_at(params.expr_depth, rng)


def _oracle_cond_at(depth: int, rng: random.Random):
    if depth == 1:
        return Holding(ITEM_VOCAB[rng.randrange(len(ITEM_VOCAB))])
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_oracle_cond_at(depth - 1, rng))
    op = BoolOp.AND if kind == 1 else BoolOp.OR
    full_left = rng.randrange(2) == 0
    other_depth = rng.randint(1, depth - 1)
    full = _oracle_cond_at(depth - 1, rng)
    other = _oracle_cond_at(other_depth, rng)
    if full_left:
        return BinaryBool(op, full, other)
    return BinaryBool(op, other, full)


def _oracle_action(params, rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        direction = (MoveDir.FORWARD, MoveDir.BACKWARD)[rng.randrange(2)]
        return Move(direction, oracle_sample_expr(params, rng))
    if kind == 1:
        return Turn((TurnDir.LEFT, TurnDir.RIGHT)[rng.randrange(2)])
    return Grab(ITEM_VOCAB[rng.randrange(len(ITEM_VOCAB))])


def oracle_sample_node(d: int, params, rng: random.Random,
                       weights=ORACLE_WEIGHTS):
    if d >= params.max_depth:
        return ActionStmt(_oracle_action(params, rng))
    kind = _oracle_weighted_index(rng, weights)
    if kind == 0:
        return ActionStmt(_oracle_action(params, rng))
    if kind == 1:
        return Loop(oracle_sample_expr(params, rng),
                    oracle_sample_block(d + 1, params, rng, weights))
    cond = oracle_sample_cond(params, rng)
    then = oracle_sample_block(d + 1, params, rng, weights)
    orelse = None
    if rng.random() < params.else_prob:
        orelse = oracle_sample_block(d + 1, params, rng, weights)
    return If(cond, then, orelse)


def oracle_sample_block(d: int, params, rng: random.Random,
                        weights=ORACLE_WEIGHTS) -> tuple:
    n = rng.randint(1, params.max_block)
    return tuple(oracle_sample_node(d, params, rng, weights)
                 for _ in range(n))


def _oracle_spine_node(d: int, params, rng: random.Random):
    if _oracle_weighted_index(rng, ORACLE_WEIGHTS[1:]) == 0:
        return Loop(oracle_sample_expr(params, rng),
                    _oracle_spine_block(d + 1, params, rng))
    cond = oracle_sample_cond(params, rng)
    then = _oracle_spine_block(d + 1, params, rng)
    orelse = None
    if rng.random() < params.else_prob:
        orelse = oracle_sample_block(d + 1, params, rng)
    return If(cond, then, orelse)


def _oracle_spine_block(d: int, params, rng: random.Random) -> tuple:
    n = rng.randint(1, params.max_block)
    pos = rng.randrange(n)
    stmts = []
    for j in range(n):
        if j != pos:
            stmts.append(oracle_sample_node(d, params, rng))
        elif d < params.max_depth:
            stmts.append(_oracle_spine_node(d, params, rng))
        else:
            stmts.append(ActionStmt(_oracle_action(params, rng)))
    return tuple(stmts)


def oracle_generate_instance(style, mode, params,
                             budget: int = DEFAULT_BUDGET):
    """``generate_instance`` over the reference sampler and linearizer."""
    g = build_grammar(style, mode, derive_seed(params.seed, "lexicon"))
    cap = budget // 2
    for attempt in range(RESAMPLE_LIMIT):
        rng = random.Random(derive_seed(params.seed, "tree", attempt))
        tree = Program(_oracle_spine_block(0, params, rng))
        if step_bound(tree, cap) <= cap:
            return g, oracle_linearize(tree, g), tree
    raise ResampleLimitError(f"{RESAMPLE_LIMIT} samples over budget")


# --- reference perturbation ------------------------------------------------
# ``perturb`` with its sites picked from the reference splitter's words,
# each with its own kind, role and span; ``tasks.perturb`` finds them on
# the symbol list of ``codec.tokenize``.

_ORACLE_DELIM_ROLES = (R.LBR, R.RBR, R.END, R.PAR_L, R.PAR_R)
_ORACLE_SWAP = {R.LBR: R.RBR, R.RBR: R.LBR, R.PAR_L: R.PAR_R,
                R.PAR_R: R.PAR_L}
_ORACLE_CATEGORIES = tuple(PerturbCategory)


def oracle_perturb(
    code: str,
    g: GrammarSpec,
    rng: random.Random,
    category: PerturbCategory | None = None,
) -> tuple[str, PerturbCategory]:
    """Reference ``perturb``: the same rng draws, sites and texts."""
    tokens = oracle_words(code, g)
    for _ in range(50):
        cat = category
        if cat is None:
            cat = _ORACLE_CATEGORIES[rng.randrange(len(_ORACLE_CATEGORIES))]
        text = _oracle_apply_perturbation(cat, code, tokens, g, rng)
        if text is None:
            continue
        try:
            parse(text, g)
        except ParseError:
            return text, cat
    raise PerturbationError(
        f"no rejected {category.value if category else 'any-category'} "
        f"perturbation found in 50 attempts"
    )


def _oracle_apply_perturbation(
    cat: PerturbCategory,
    code: str,
    tokens: list[OracleWord],
    g: GrammarSpec,
    rng: random.Random,
) -> str | None:
    if cat is PerturbCategory.DELIMITER_DELETE:
        sites = [t for t in tokens if t.role in _ORACLE_DELIM_ROLES]
        if not sites:
            return None
        site = sites[rng.randrange(len(sites))]
        return code[:site.start] + code[site.end:]
    if cat is PerturbCategory.DELIMITER_SWAP:
        sites = [t for t in tokens if t.role in _ORACLE_SWAP]
        if not sites:
            return None
        site = sites[rng.randrange(len(sites))]
        return _oracle_splice(code, site, g.token(_ORACLE_SWAP[site.role]))
    if cat is PerturbCategory.KEYWORD_CORRUPT:
        sites = [t for t in tokens
                 if t.kind == "keyword" and t.role not in PUNCT_ROLES]
        if not sites:
            return None
        site = sites[rng.randrange(len(sites))]
        return _oracle_splice(code, site, _oracle_fresh_token(g, rng))
    # illegal nesting: drop a control keyword into expression or
    # condition position
    int_sites = [t for t in tokens if t.kind == "int"]
    cond_sites = [t for t in tokens if t.role is R.HOLDING]
    sites = int_sites + cond_sites
    if not sites:
        return None
    site = sites[rng.randrange(len(sites))]
    role = R.LOOP if site.kind == "int" else R.IF
    return _oracle_splice(code, site, g.token(role))


def _oracle_splice(code: str, token: OracleWord, replacement: str) -> str:
    return code[:token.start] + replacement + code[token.end:]


def _oracle_fresh_token(g: GrammarSpec, rng: random.Random) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        word = "".join(letters[rng.randrange(26)] for _ in range(5))
        if word not in g.keyword_roles and not word.isdigit():
            return word


# --- reference canonical form ------------------------------------------------
# A hand-written serializer and recursive-descent reader of the canonical
# text, independent of the grammar tables that ``canon_serialize`` and
# ``canon_parse`` are compiled from.  Its tokens are the words between
# spaces and parentheses, and its rejections carry its own positions.


def oracle_canon_serialize(node) -> str:
    if isinstance(node, Program):
        return "(prog " + " ".join(map(oracle_canon_serialize, node.body)) + ")"
    if isinstance(node, ActionStmt):
        return oracle_canon_serialize(node.action)
    if isinstance(node, Loop):
        return (f"(loop {oracle_canon_serialize(node.count)} "
                f"{_oracle_canon_block(node.body)})")
    if isinstance(node, If):
        text = (f"(if {oracle_canon_serialize(node.cond)} "
                f"{_oracle_canon_block(node.then)}")
        if node.orelse is not None:
            text += f" {_oracle_canon_block(node.orelse)}"
        return text + ")"
    if isinstance(node, Move):
        return f"(move {node.dir.value} {oracle_canon_serialize(node.steps)})"
    if isinstance(node, Turn):
        return f"(turn {node.dir.value})"
    if isinstance(node, Grab):
        return f"(grab {node.item})"
    if isinstance(node, Literal):
        return f"(int {node.value})"
    if isinstance(node, Holding):
        return f"(holding {node.item})"
    if isinstance(node, Not):
        return f"(not {oracle_canon_serialize(node.inner)})"
    if isinstance(node, (BinaryArith, BinaryBool)):
        return (f"({node.op.value} {oracle_canon_serialize(node.left)} "
                f"{oracle_canon_serialize(node.right)})")
    raise TypeError(f"cannot serialize {node!r}")


def _oracle_canon_block(block) -> str:
    return "(" + " ".join(map(oracle_canon_serialize, block)) + ")"


class OracleRejection(ValueError):
    """The reference reader's rejection, at a token position."""

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"at token {position}: {message}")
        self.position = position


def oracle_canon_parse(text: str) -> Program:
    """Reference reader; raises OracleRejection, or ValueError where an
    integer is past ``int()``'s digit limit."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if tokens.count("(") > MAX_NESTING:
        depth = 0
        for position, tok in enumerate(tokens):
            depth += (tok == "(") - (tok == ")")
            if depth > MAX_NESTING:
                raise OracleRejection(position, f"more than {MAX_NESTING} "
                                      "nested parentheses")
    reader = _OracleCanonReader(tokens)
    program = reader.program()
    if reader.pos != len(tokens):
        raise OracleRejection(reader.pos, "trailing tokens after program")
    return program


class _OracleCanonReader:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str):
        raise OracleRejection(self.pos, message)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

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

    def stmt(self):
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
            orelse = self.block() if self.peek() == "(" else None
            self.expect(")")
            return If(cond, then, orelse)
        if head == "move":
            tok = self.take()
            if tok not in ("F", "B"):
                self.fail(f"expected move direction, found {tok!r}")
            if self.peek() == ")":
                self.pos += 1
                return ActionStmt(Move(MoveDir(tok), Literal(1)))
            steps = self.arith()
            self.expect(")")
            return ActionStmt(Move(MoveDir(tok), steps))
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

    def block(self) -> tuple:
        self.expect("(")
        stmts = []
        while self.peek() != ")":
            stmts.append(self.stmt())
        self.expect(")")
        return tuple(stmts)

    def item(self) -> str:
        tok = self.take()
        if tok not in _ORACLE_ITEMS:
            self.pos -= 1
            self.fail(f"expected item token, found {tok!r}")
        return tok

    def arith(self):
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

    def bool_expr(self):
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


# --- derivations from the rendered grammar text ------------------------------

_EBNF_TOKEN_RE = re.compile(r'"[^"]*"|/[^/]*/|[()|]|[?*+]|[A-Za-z_]+')


def _read_ebnf(text: str) -> tuple[dict, dict, dict]:
    """(rules, tokens, patterns) from ``render_ebnf`` text.

    rules maps a name to a list of alternatives, each a list of
    (node, quantifier) pairs where node is a name or a nested list of
    alternatives; tokens maps role names to their bound text, patterns
    maps class names to their regex source.
    """
    rules, tokens, patterns = {}, {}, {}
    for line in text.splitlines():
        name, body = line.split(": ", 1)
        if body.startswith('"'):
            tokens[name] = body[1:-1]
        elif body.startswith("/"):
            patterns[name] = body[1:-1]
        else:
            words = _EBNF_TOKEN_RE.findall(body)
            rules[name], rest = _read_choice(words)
            assert not rest, line
    return rules, tokens, patterns


def _read_choice(words: list) -> tuple[list, list]:
    alternatives, current = [], []
    while words and words[0] != ")":
        word, words = words[0], words[1:]
        if word == "|":
            alternatives.append(current)
            current = []
            continue
        if word == "(":
            node, words = _read_choice(words)
            words = words[1:]  # the closing parenthesis
        else:
            node = word
        quant = ""
        if words and words[0] in ("?", "*", "+"):
            quant, words = words[0], words[1:]
        current.append((node, quant))
    alternatives.append(current)
    return alternatives, words


def derive(text: str, choose, literal, max_depth: int = 4) -> str:
    """One random sentence of the grammar printed in ``text``.

    ``choose(n)`` picks an index below n and ``literal(pattern)`` draws a
    string matching a class's regex.  Past ``max_depth`` nested rules the
    expansion takes first alternatives, drops ``?`` items, repeats ``*``
    items zero times and ``+`` items once, which terminates for every style
    (each rule's first alternative is its least nested one).  Tokens are
    joined by a space, a newline or, next to punctuation, nothing.
    """
    rules, tokens, patterns = _read_ebnf(text)
    out: list[str] = []

    def expand(alternatives: list, depth: int) -> None:
        deep = depth > max_depth
        alt = alternatives[0 if deep else choose(len(alternatives))]
        for node, quant in alt:
            if quant == "?":
                count = 0 if deep else choose(2)
            elif quant == "*":
                count = 0 if deep else choose(3)
            elif quant == "+":
                count = 1 if deep else 1 + choose(2)
            else:
                count = 1
            for _ in range(count):
                if isinstance(node, list):
                    expand(node, depth)
                elif node in tokens:
                    out.append(tokens[node])
                elif node in patterns:
                    out.append(literal(patterns[node]))
                else:
                    expand(rules[node], depth + 1)

    expand(rules["start"], 0)
    text = out[0]
    for prev, word in zip(out, out[1:]):
        glue = prev[-1] in "[]{}();+*" or word[0] in "[]{}();+*"
        text += ("", " ", "\n  ")[choose(3) if glue else 1 + choose(2)]
        text += word
    return text


def bracket_depth(text: str) -> int:
    """Deepest nesting of ``([{`` brackets in ``text``."""
    depth = deepest = 0
    for ch in text:
        depth += (ch in "([{") - (ch in ")]}")
        deepest = max(deepest, depth)
    return deepest


def deep_surface(g: GrammarSpec, depth: int) -> str:
    """One move whose count nests additions so that its text under ``g``
    nests exactly ``depth`` brackets."""
    def program(levels: int) -> Program:
        count = Literal(1)
        for _ in range(levels):
            count = BinaryArith(ArithOp.ADD, count, Literal(1))
        return Program((ActionStmt(Move(MoveDir.FORWARD, count)),))

    offset = bracket_depth(linearize(program(0), g))
    text = linearize(program(depth - offset), g)
    assert bracket_depth(text) == depth
    return text


def cache_entries(cache_dir) -> list[tuple[str, str]]:
    """Every ``(key, text)`` entry of the cache logs under ``cache_dir``, in
    file then line order, read strictly: each file there must be a model
    directory's ``cache.jsonl`` of complete ASCII lines, each a JSON array
    of two strings.  No cache directory holds no entry."""
    root = Path(cache_dir)
    entries = []
    for path in sorted(p for p in root.rglob("*") if not p.is_dir()):
        assert path.relative_to(root).parts[1:] == ("cache.jsonl",), path
        data = path.read_bytes()
        assert data.isascii() and data.endswith(b"\n") or not data, path
        for line in data.split(b"\n")[:-1]:
            entry = json.loads(line)
            assert isinstance(entry, list) and len(entry) == 2, line
            assert all(isinstance(part, str) for part in entry), line
            entries.append(tuple(entry))
    return entries
