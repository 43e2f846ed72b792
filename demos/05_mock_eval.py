"""Score the two built-in mock models and print the report.

mock://perfect answers with the gold label or gold code; mock://flatten
pre-computes every arithmetic expression, which keeps behavior intact but
destroys tree structure, so SCR drops while SVR and BER stay at 100.
"""

import tempfile

from gridlang import (
    EndpointConfig,
    GenParams,
    LexiconMode,
    PromptConfig,
    Style,
    TaskKind,
    make_dataset,
    render_report,
    run_evaluation,
)

params = GenParams(max_depth=5, seed=8, expr_depth=2)
dataset = make_dataset(TaskKind.INSTRUCTION, 20, Style.BLOCK,
                       LexiconMode.NATURAL, params)

rows = []
with tempfile.TemporaryDirectory() as cache:
    for scheme in ("perfect", "flatten"):
        cfg = EndpointConfig(base_url=f"mock://{scheme}",
                             model_id=f"mock-{scheme}")
        result = run_evaluation(dataset, cfg, PromptConfig(),
                                cache_dir=cache)
        rows.append((f"mock-{scheme}", TaskKind.INSTRUCTION, result.metrics))

print(render_report(rows))
