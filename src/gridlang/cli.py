"""Operator command line: gen, sweep, eval, score.

Option precedence is flags over config file over defaults.  The config
file is plain ``key = value`` lines (``#`` comments allowed) using the
flag names.  Every artifact embeds the effective configuration it was
produced from, so a file is reproducible from its own header; nothing is
timestamped.  The exit status is nonzero exactly when an operation
errored; metric values never affect it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from gridlang.grammar import LexiconMode, Style
from gridlang.harness import (
    EndpointConfig,
    HarnessError,
    PromptConfig,
    dataset_kind,
    read_responses,
    run_evaluation,
    score_answers,
)
from gridlang.metrics import (
    Metrics,
    MetricsTable,
    render_csv,
    render_long_csv,
    render_report,
)
from gridlang.sampler import GenParams
from gridlang.seeding import derive_seed
from gridlang.tasks import (
    DATASET_FORMAT,
    TaskInstance,
    TaskKind,
    make_dataset,
    read_dataset,
    write_dataset,
)

_MISSING = object()

_SWEEP_AXES = ("depth", "p", "E", "shots", "style")
# value domains mirror the stress-test ranges the datasets are meant to span
_AXIS_PARSERS = {
    "depth": int,
    "p": float,
    "E": int,
    "shots": int,
    "style": str,
}


class CliError(ValueError):
    pass


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    config = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise CliError(f"{path}:{line_no}: expected key = value")
            key, _, value = text.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


def _resolve(args, config: dict, name: str, convert, default=_MISSING):
    """flags > config file > default; _MISSING default means required."""
    value = getattr(args, name)
    if value is not None:
        return value
    if name in config:
        raw = config[name]
        return _parse_bool(raw) if convert is bool else convert(raw)
    if default is _MISSING:
        raise CliError(f"missing required option --{name.replace('_', '-')}")
    return default


def _gen_settings(args, config):
    kind = TaskKind(_resolve(args, config, "task", str))
    n = _resolve(args, config, "n", int)
    style = Style(_resolve(args, config, "style", str, "block"))
    mode = LexiconMode(_resolve(args, config, "lexicon", str, "natural"))
    params = GenParams(
        max_depth=_resolve(args, config, "depth", int, 10),
        else_prob=_resolve(args, config, "p", float, 0.5),
        expr_depth=_resolve(args, config, "E", int, 2),
        max_block=_resolve(args, config, "max_block", int, 3),
        seed=_resolve(args, config, "seed", int, 0),
    )
    return kind, n, style, mode, params


def _endpoint_settings(args, config) -> EndpointConfig:
    return EndpointConfig(
        base_url=_resolve(args, config, "base_url", str),
        model_id=_resolve(args, config, "model", str),
        auth_token_env_var=_resolve(args, config, "auth_env", str,
                                    "GRIDLANG_API_TOKEN"),
        temperature=_resolve(args, config, "temperature", float, 0.0),
        max_tokens=_resolve(args, config, "max_tokens", int, 4096),
        timeout=_resolve(args, config, "timeout", float, 60.0),
        max_retries=_resolve(args, config, "max_retries", int, 3),
        parallelism=_resolve(args, config, "parallelism", int, 4),
        retry_backoff=_resolve(args, config, "retry_backoff", float, 0.5),
    )


def _prompt_settings(args, config) -> PromptConfig:
    return PromptConfig(
        shots=_resolve(args, config, "shots", int, 0),
        cot=_resolve(args, config, "cot", bool, True),
    )


# --- gen ---------------------------------------------------------------------


def _gen_provenance(kind, n, style, mode, params) -> dict:
    return {
        "command": "gen",
        "dataset_format": DATASET_FORMAT,
        "task": kind.value,
        "n": n,
        "style": style.value,
        "lexicon": mode.value,
        "params": params.to_dict(),
    }


def _print_gen_summary(instances: list[TaskInstance]) -> None:
    depths: Counter = Counter()
    categories: Counter = Counter()
    for inst in instances:
        # the generator plants control depth exactly D in every program
        if inst.gold_code is not None or inst.gold_label == "VALID":
            depths[inst.params.max_depth] += 1
        if inst.perturb_category is not None:
            categories[inst.perturb_category.value] += 1
    print(f"instances: {len(instances)}")
    print("control depth histogram (valid programs):")
    for depth in sorted(depths):
        print(f"  depth {depth}: {depths[depth]}")
    if categories:
        print("perturbation mix:")
        for name in sorted(categories):
            print(f"  {name}: {categories[name]}")


def cmd_gen(args) -> int:
    config = _load_config(args.config)
    kind, n, style, mode, params = _gen_settings(args, config)
    out = Path(_resolve(args, config, "out", str))
    instances = make_dataset(kind, n, style, mode, params)
    write_dataset(instances, out,
                  config=_gen_provenance(kind, n, style, mode, params))
    print(f"wrote {out}")
    _print_gen_summary(instances)
    return 0


# --- eval / score ------------------------------------------------------------


def _write_reports(out_dir: Path, model: str, kind: TaskKind,
                   metrics: Metrics, provenance: dict) -> str:
    """Write report.md and report.csv for one (model, task) cell; return
    the report text without its provenance section."""
    table = MetricsTable()
    table.add(model, kind, metrics)
    report = render_report(table)
    (out_dir / "report.md").write_text(
        report + "\n## Provenance\n\n```json\n"
        + json.dumps(provenance, indent=2) + "\n```\n", encoding="utf-8")
    csv_text = "# " + json.dumps(provenance) + "\n" + render_csv(table)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    return report


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    dataset = read_dataset(args.dataset)
    kind = dataset_kind(dataset)
    endpoint = _endpoint_settings(args, config)
    pc = _prompt_settings(args, config)
    out_dir = Path(_resolve(args, config, "out_dir", str))
    cache_dir = _resolve(args, config, "cache_dir", str, "cache")
    provenance = {
        "command": "eval",
        "dataset": str(args.dataset),
        "model": endpoint.model_id,
        "base_url": endpoint.base_url,
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_tokens,
        "shots": pc.shots,
        "cot": pc.cot,
    }
    result = run_evaluation(
        dataset, endpoint, pc,
        cache_dir=cache_dir,
        out_dir=out_dir,
        permissive=args.permissive,
        provenance=provenance,
    )
    print(_write_reports(out_dir, endpoint.model_id, kind, result.metrics,
                         provenance), end="")
    print(f"model calls: {result.model_calls}")
    print(f"wrote {result.results_path} and reports under {out_dir}")
    return 0


def cmd_score(args) -> int:
    config = _load_config(args.config)
    dataset = read_dataset(args.dataset)
    kind = dataset_kind(dataset)
    responses = read_responses(args.responses)
    out_dir = Path(_resolve(args, config, "out_dir", str))
    answers = []
    for inst in dataset:
        if inst.id not in responses:
            raise CliError(f"no captured response for instance {inst.id}")
        row = responses[inst.id]
        answers.append((row.get("prompt_sha256"), row["response"]))
    model = _resolve(args, config, "model", str, "captured")
    provenance = {
        "command": "score",
        "dataset": str(args.dataset),
        "responses": str(args.responses),
        "model": model,
    }
    _records, metrics, _rows = score_answers(dataset, answers, out_dir,
                                             provenance)
    print(_write_reports(out_dir, model, kind, metrics, provenance), end="")
    print(f"wrote {out_dir / 'results.jsonl'} and reports under {out_dir}")
    return 0


# --- sweep -------------------------------------------------------------------


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    axis = args.axis
    parse_value = _AXIS_PARSERS[axis]
    values = [parse_value(v.strip()) for v in args.values.split(",") if
              v.strip()]
    if not values:
        raise CliError("no sweep values given")
    kind, n, style, mode, base_params = _gen_settings(args, config)
    out_dir = Path(_resolve(args, config, "out_dir", str))
    cache_dir = _resolve(args, config, "cache_dir", str, "cache")
    evaluate = args.base_url is not None or "base_url" in config
    endpoint = _endpoint_settings(args, config) if evaluate else None
    base_pc = _prompt_settings(args, config)

    def variant(value) -> tuple[Style, GenParams, PromptConfig]:
        """Apply one axis value on top of the shared base configuration."""
        v_style, v_params, v_pc = style, base_params, base_pc
        if axis == "shots":
            # shots only changes the prompt; every value shares one dataset
            seed = derive_seed(base_params.seed, "sweep", axis, "base")
            return v_style, replace(v_params, seed=seed), \
                PromptConfig(shots=value, cot=base_pc.cot)
        v_params = replace(
            v_params, seed=derive_seed(base_params.seed, "sweep", axis,
                                       str(value))
        )
        if axis == "depth":
            v_params = replace(v_params, max_depth=value)
        elif axis == "p":
            v_params = replace(v_params, else_prob=value)
        elif axis == "E":
            v_params = replace(v_params, expr_depth=value)
        elif axis == "style":
            v_style = Style(value)
        return v_style, v_params, v_pc

    # the constructors refuse a bad value before any leaf is written
    variants = [(value, *variant(value)) for value in values]
    entries = []
    shared_dataset = None
    for value, v_style, v_params, v_pc in variants:
        leaf = out_dir / f"{axis}-{value}"
        leaf.mkdir(parents=True, exist_ok=True)
        dataset_path = leaf / "dataset.jsonl"
        if axis == "shots" and shared_dataset is not None:
            instances = shared_dataset
        else:
            instances = make_dataset(kind, n, v_style, mode, v_params)
            if axis == "shots":
                shared_dataset = instances
        provenance = _gen_provenance(kind, n, v_style, mode, v_params)
        provenance.update({"command": "sweep", "axis": axis, "value": value})
        write_dataset(instances, dataset_path, config=provenance)
        print(f"wrote {dataset_path}")
        if evaluate:
            result = run_evaluation(
                instances, endpoint, v_pc,
                cache_dir=cache_dir,
                out_dir=leaf,
                permissive=args.permissive,
                provenance=provenance,
            )
            _write_reports(leaf, endpoint.model_id, kind, result.metrics,
                           provenance)
            entries.append((value, endpoint.model_id, kind.value,
                            result.metrics))
    if entries:
        csv_path = out_dir / "sweep.csv"
        csv_path.write_text(render_long_csv(axis, entries), encoding="utf-8")
        print(f"wrote {csv_path}")
    return 0


# --- argument wiring ---------------------------------------------------------


_GEN_FLAGS = (
    ("--task", {"choices": [k.value for k in TaskKind]}),
    ("--n", {"type": int}),
    ("--depth", {"type": int}),
    ("--p", {"type": float}),
    ("--E", {"type": int}),
    ("--max-block", {"type": int}),
    ("--style", {"choices": [s.value for s in Style]}),
    ("--lexicon", {"choices": [m.value for m in LexiconMode]}),
    ("--seed", {"type": int}),
)

_ENDPOINT_FLAGS = (
    ("--base-url", {}),
    ("--model", {}),
    ("--auth-env", {}),
    ("--temperature", {"type": float}),
    ("--max-tokens", {"type": int}),
    ("--timeout", {"type": float}),
    ("--max-retries", {"type": int}),
    ("--parallelism", {"type": int}),
    ("--retry-backoff", {"type": float}),
    ("--shots", {"type": int}),
    ("--cot", {"action": argparse.BooleanOptionalAction, "default": None}),
    ("--cache-dir", {}),
    ("--permissive", {"action": "store_true"}),
)

# subcommand -> (help, its flags in help order, handler); a flag's dest is
# its name with dashes as underscores
_SUBCOMMANDS = {
    "gen": (
        "generate a dataset file",
        _GEN_FLAGS + (("--out", {}), ("--config", {})),
        cmd_gen,
    ),
    "sweep": (
        "generate (and optionally evaluate) a dataset family "
        "along one axis",
        _GEN_FLAGS + (
            ("--axis", {"choices": _SWEEP_AXES, "required": True}),
            ("--values", {"required": True,
                          "help": "comma-separated axis values"}),
            ("--out-dir", {}),
        ) + _ENDPOINT_FLAGS + (("--config", {}),),
        cmd_sweep,
    ),
    "eval": (
        "run a model over a dataset",
        (("--dataset", {"required": True}), ("--out-dir", {}))
        + _ENDPOINT_FLAGS + (("--config", {}),),
        cmd_eval,
    ),
    "score": (
        "re-score captured responses without network",
        (("--dataset", {"required": True}),
         ("--responses", {"required": True}),
         ("--out-dir", {}), ("--model", {}), ("--config", {})),
        cmd_score,
    ),
}


def _parser(wired) -> argparse.ArgumentParser:
    """The command-line parser, with the flags of the subcommands named in
    ``wired`` only; any other subcommand is listed without its flags."""
    parser = argparse.ArgumentParser(
        prog="gridlang",
        description="Generate grammar-interpretation datasets and score "
                    "model answers on them.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, func) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name in wired:
            for flag, options in flags:
                sub.add_argument(flag, **options)
        sub.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(_SUBCOMMANDS)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a subcommand parses only its own flags, so only those are wired
    wired = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    args = _parser(wired).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
