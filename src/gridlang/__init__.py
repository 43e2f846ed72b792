"""gridlang: grammar-interpretation evaluation over a robot grid world.

The package generates small programs in randomized toy languages (three
syntactic styles crossed with natural or opaque lexicons), renders the
grammar as EBNF text, executes programs in a deterministic grid world,
and scores model answers on three nested layers: syntax, behavior, and
semantics.
"""

from gridlang.ast import (
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
    canon_parse,
    canon_serialize,
    control_depth,
    expr_depth,
)
from gridlang.codec import ParseError, linearize, parse, tokenize
from gridlang.grammar import (
    GrammarSpec,
    LexiconMode,
    Style,
    TerminalRole,
    build_grammar,
    grammar_from_text,
    render_ebnf,
)
from gridlang.harness import (
    EndpointConfig,
    PromptConfig,
    build_prompt,
    extract_code,
    run_evaluation,
)
from gridlang.metrics import (
    EvalRecord,
    Metrics,
    MetricsTable,
    aggregate,
    render_csv,
    render_report,
    score_generation,
    score_judgment,
)
from gridlang.sampler import GenParams, ResampleLimitError, generate_instance
from gridlang.seeding import derive_seed
from gridlang.tasks import (
    PerturbCategory,
    TaskInstance,
    TaskKind,
    make_dataset,
    perturb,
    read_dataset,
    render_instruction,
    render_state,
    write_dataset,
)
from gridlang.world import (
    DEFAULT_BUDGET,
    START_STATE,
    BudgetExceeded,
    Facing,
    Final,
    RobotState,
    exec_program,
    step_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ArithOp", "BinaryArith", "BinaryBool", "BoolOp", "Grab", "Holding",
    "If", "ItemToken", "Literal", "Loop", "Move", "MoveDir", "Not",
    "Program", "Turn", "TurnDir", "canon_parse",
    "canon_serialize", "control_depth", "expr_depth",
    "ParseError", "linearize", "parse", "tokenize",
    "GrammarSpec", "LexiconMode", "Style", "TerminalRole", "build_grammar",
    "grammar_from_text", "render_ebnf",
    "EndpointConfig", "PromptConfig", "build_prompt", "extract_code",
    "run_evaluation",
    "EvalRecord", "Metrics", "MetricsTable", "aggregate", "render_csv",
    "render_report", "score_generation", "score_judgment",
    "GenParams", "ResampleLimitError", "generate_instance",
    "derive_seed",
    "PerturbCategory", "TaskInstance", "TaskKind", "make_dataset",
    "perturb", "read_dataset", "render_instruction", "render_state",
    "write_dataset",
    "DEFAULT_BUDGET", "START_STATE", "BudgetExceeded", "Facing", "Final",
    "RobotState", "exec_program", "step_bound",
    "__version__",
]
