"""Sample programs at increasing control depth and verify the round trip."""

from gridlang import (
    GenParams,
    LexiconMode,
    Style,
    control_depth,
    generate_instance,
    parse,
)

for depth in (2, 5, 10):
    params = GenParams(max_depth=depth, else_prob=0.5, expr_depth=2, seed=3)
    g, code, tree = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                      params)
    assert parse(code, g) == tree
    print(f"--- D={depth} (control depth {control_depth(tree)}) ---")
    print(code)
    print()

# the alien lexicon hides every keyword but the structure survives
params = GenParams(max_depth=3, seed=3)
g, code, tree = generate_instance(Style.SEXPR, LexiconMode.ALIEN, params)
print("--- same machinery, alien lexicon, s-expression style ---")
print(code)
assert parse(code, g) == tree
