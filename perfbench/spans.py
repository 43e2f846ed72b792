"""In-memory span tracer wrapped around the public functions of gridlang.

The tracer measures the package from outside: it replaces each listed
function, in its defining module and in every ``gridlang`` module that bound
it with ``from ... import``, by a wrapper that records one span per call.
Spans stay in memory until the process ends; ``self_time`` then subtracts
the union of each span's child intervals from its duration.

Spans opened on a thread that has no open span of its own (the worker
threads of ``harness.run_evaluation``) take the innermost open
``run_evaluation`` span as parent, so pool work is charged to it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# module -> functions wrapped in it; every one is public API of gridlang
TRACED = {
    "grammar": ("build_grammar", "render_ebnf", "grammar_from_text"),
    "sampler": ("generate_instance",),
    "world": ("exec_program", "step_bound"),
    "codec": ("tokenize", "parse", "linearize"),
    "ast": ("canon_serialize", "canon_parse"),
    "tasks": ("make_dataset", "perturb", "write_dataset", "read_dataset",
              "render_state", "render_instruction"),
    "harness": ("run_evaluation", "build_prompt", "extract_code",
                "score_instance"),
    "metrics": ("score_generation", "score_judgment", "aggregate"),
    "cli": ("main",),
}

# functions called once per instance (or per demo); these also report
# per-call latency percentiles
PER_INSTANCE = frozenset({
    "grammar.build_grammar", "grammar.render_ebnf", "grammar.grammar_from_text",
    "sampler.generate_instance", "world.exec_program", "world.step_bound",
    "codec.tokenize", "codec.parse", "codec.linearize",
    "ast.canon_serialize", "ast.canon_parse",
    "tasks.perturb", "tasks.render_state", "tasks.render_instruction",
    "harness.build_prompt", "harness.extract_code", "harness.score_instance",
    "metrics.score_generation", "metrics.score_judgment",
})

POOL_PARENT = "harness.run_evaluation"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Span:
    __slots__ = ("name", "start", "end", "children", "value", "error")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.children: list[Span] = []
        self.value = None  # the return value, kept only where it is read
        self.error: str | None = None

    def self_time(self) -> float:
        """Duration minus the union of the child intervals."""
        covered = 0.0
        run_start = run_end = None
        for child in sorted(self.children, key=lambda c: c.start):
            if run_end is None or child.start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child.start, child.end
            else:
                run_end = max(run_end, child.end)
        if run_end is not None:
            covered += run_end - run_start
        return max(0.0, (self.end - self.start) - covered)


class Tracer:
    """Installs span wrappers; ``uninstall`` puts every original back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parents: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            with self._lock:
                parent = self._pool_parents[-1] if self._pool_parents else None
        span = Span(name, time.perf_counter())
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            if name == POOL_PARENT:
                self._pool_parents.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == POOL_PARENT:
            with self._lock:
                self._pool_parents.remove(span)

    def wrap(self, name: str, func):
        keep_value = name in _VALUE_READERS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if keep_value:
                span.value = _VALUE_READERS[name](args, kwargs, result)
            return result

        return traced

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever a gridlang module binds it."""
        for mod_name, fn_names in TRACED.items():
            importlib.import_module(f"gridlang.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gridlang" or n.startswith("gridlang."))
                   and m is not None]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"gridlang.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- export -------------------------------------------------------------

    def export(self) -> list[list]:
        """One row per span, in opening order:
        [name, self_s, duration_s, value, error]."""
        return [[s.name, s.self_time(), s.end - s.start, s.value, s.error]
                for s in self.spans]


def _exec_value(args, kwargs, result):
    # Final carries steps_used; BudgetExceeded carries nothing
    steps = getattr(result, "steps_used", None)
    return {"steps": steps} if steps is not None else {"budget_exceeded": 1}


def _run_evaluation_value(args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    return {"n": len(dataset), "model_calls": result.model_calls}


_VALUE_READERS = {
    "world.exec_program": _exec_value,
    "harness.score_instance":
        lambda args, kwargs, result: {"stage": result.failure_stage},
    "harness.run_evaluation": _run_evaluation_value,
}
