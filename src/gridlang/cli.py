"""Operator command line: gen, sweep, eval, score.

Option precedence is flags over config file over defaults.  The config
file is plain ``key = value`` lines (``#`` comments allowed) using the
flag names of any subcommand; a key that names no flag, or a value that
its flag would refuse, is refused with its line when the file is loaded.
Every artifact embeds the effective configuration it was produced from,
so a file is reproducible from its own header; nothing is timestamped.
The exit status is nonzero exactly when an operation errored; metric
values never affect it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import MISSING, fields, replace
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

class CliError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    """The settings of a config file, each read as its flag's row reads
    it on the command line."""
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
            key = key.strip().replace("-", "_")
            # a key of another subcommand is allowed, so one file serves all
            if key not in _OPTIONS:
                raise CliError(f"{path}:{line_no}: no option is named "
                               f"{key!r}")
            try:
                config[key] = _read_value(_OPTIONS[key], value.strip())
            except ValueError as exc:
                raise CliError(f"{path}:{line_no}: {key}: {exc}") from None
    return config


_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


def _read_value(options: dict, text: str):
    """``text`` read by a flag's row: its boolean or type, then its
    choices; raises ValueError naming what is wrong."""
    if "action" in options:
        value = _BOOLEANS.get(text.lower())
        if value is None:
            raise ValueError(f"expected a boolean, got {text!r}")
        return value
    kind = options.get("type", str)
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}") from None
    choices = options.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"invalid choice: {text!r} (choose from "
                         f"{', '.join(map(repr, choices))})")
    return value


def _resolve(args, config: dict, name: str, default=MISSING):
    """flags > config file > default; a MISSING default means required."""
    value = getattr(args, name)
    if value is not None:
        return value
    if name in config:
        return config[name]
    if default is MISSING:
        raise CliError(f"missing required option --{name.replace('_', '-')}")
    return default


def _settings(cls, args, config, flags):
    """A ``cls`` from the rows of ``flags`` that name one of its fields;
    a field that no flag or config key sets keeps its default."""
    defaults = {f.name: f.default for f in fields(cls)}
    return cls(**{field: _resolve(args, config, _dest(flag), defaults[field])
                  for flag, _options, field in flags if field in defaults})


def _gen_settings(args, config):
    kind = TaskKind(_resolve(args, config, "task"))
    n = _resolve(args, config, "n")
    style = Style(_resolve(args, config, "style", "block"))
    mode = LexiconMode(_resolve(args, config, "lexicon", "natural"))
    params = _settings(GenParams, args, config, _GEN_FLAGS)
    return kind, n, style, mode, params


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
    out = Path(_resolve(args, config, "out"))
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
    rows = [(model, kind, metrics)]
    report = render_report(rows)
    (out_dir / "report.md").write_text(
        report + "\n## Provenance\n\n```json\n"
        + json.dumps(provenance, indent=2) + "\n```\n", encoding="utf-8")
    csv_text = "# " + json.dumps(provenance) + "\n" + render_csv(rows)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    return report


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    dataset = read_dataset(args.dataset)
    kind = dataset_kind(dataset)
    endpoint = _settings(EndpointConfig, args, config, _ENDPOINT_FLAGS)
    pc = _settings(PromptConfig, args, config, _ENDPOINT_FLAGS)
    out_dir = Path(_resolve(args, config, "out_dir"))
    cache_dir = _resolve(args, config, "cache_dir", "cache")
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
        permissive=_resolve(args, config, "permissive", False),
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
    out_dir = Path(_resolve(args, config, "out_dir"))
    answers = []
    for inst in dataset:
        if inst.id not in responses:
            raise CliError(f"no captured response for instance {inst.id}")
        row = responses[inst.id]
        answers.append((row.get("prompt_sha256"), row["response"]))
    model = _resolve(args, config, "model", "captured")
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
    parse_value = _OPTIONS[axis].get("type", str)
    values = [parse_value(v.strip()) for v in args.values.split(",") if
              v.strip()]
    if not values:
        raise CliError("no sweep values given")
    kind, n, _style, mode, _params = _gen_settings(args, config)
    out_dir = Path(_resolve(args, config, "out_dir"))
    cache_dir = _resolve(args, config, "cache_dir", "cache")
    evaluate = args.base_url is not None or "base_url" in config
    endpoint = (_settings(EndpointConfig, args, config, _ENDPOINT_FLAGS)
                if evaluate else None)
    permissive = _resolve(args, config, "permissive", False)

    def variant(value) -> tuple[Style, GenParams, PromptConfig]:
        """The settings of the same flags with the axis flag set to
        ``value``, and a seed derived for the leaf."""
        leaf_args = argparse.Namespace(**{**vars(args), axis: value})
        pc = _settings(PromptConfig, leaf_args, config, _ENDPOINT_FLAGS)
        _kind, _n, style, _mode, params = _gen_settings(leaf_args, config)
        # shots only changes the prompt; every value shares one dataset
        tag = "base" if axis == "shots" else str(value)
        seed = derive_seed(params.seed, "sweep", axis, tag)
        return style, replace(params, seed=seed), pc

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
                permissive=permissive,
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


# Each flag row: (flag, its argparse options, the settings field it sets or
# None).  An unset flag reads None, so the config file can fill it.
_GEN_FLAGS = (
    ("--task", {"choices": [k.value for k in TaskKind]}, None),
    ("--n", {"type": int}, None),
    ("--depth", {"type": int}, "max_depth"),
    ("--p", {"type": float}, "else_prob"),
    ("--E", {"type": int}, "expr_depth"),
    ("--max-block", {"type": int}, "max_block"),
    ("--style", {"choices": [s.value for s in Style]}, None),
    ("--lexicon", {"choices": [m.value for m in LexiconMode]}, None),
    ("--seed", {"type": int}, "seed"),
)

_ENDPOINT_FLAGS = (
    ("--base-url", {}, "base_url"),
    ("--model", {}, "model_id"),
    ("--auth-env", {}, "auth_token_env_var"),
    ("--temperature", {"type": float}, "temperature"),
    ("--max-tokens", {"type": int}, "max_tokens"),
    ("--timeout", {"type": float}, "timeout"),
    ("--max-retries", {"type": int}, "max_retries"),
    ("--parallelism", {"type": int}, "parallelism"),
    ("--retry-backoff", {"type": float}, "retry_backoff"),
    ("--shots", {"type": int}, "shots"),
    ("--cot", {"action": argparse.BooleanOptionalAction, "default": None},
     "cot"),
    ("--cache-dir", {}, None),
    ("--permissive", {"action": "store_true", "default": None}, None),
)

# the flags a sweep can vary; value domains mirror the stress-test ranges
# the datasets are meant to span
_SWEEP_AXES = ("depth", "p", "E", "shots", "style")

# subcommand -> (help, its flag rows in help order, handler)
_SUBCOMMANDS = {
    "gen": (
        "generate a dataset file",
        _GEN_FLAGS + (("--out", {}, None), ("--config", {}, None)),
        cmd_gen,
    ),
    "sweep": (
        "generate (and optionally evaluate) a dataset family "
        "along one axis",
        _GEN_FLAGS + (
            ("--axis", {"choices": _SWEEP_AXES, "required": True}, None),
            ("--values", {"required": True,
                          "help": "comma-separated axis values"}, None),
            ("--out-dir", {}, None),
        ) + _ENDPOINT_FLAGS + (("--config", {}, None),),
        cmd_sweep,
    ),
    "eval": (
        "run a model over a dataset",
        (("--dataset", {"required": True}, None), ("--out-dir", {}, None))
        + _ENDPOINT_FLAGS + (("--config", {}, None),),
        cmd_eval,
    ),
    "score": (
        "re-score captured responses without network",
        (("--dataset", {"required": True}, None),
         ("--responses", {"required": True}, None),
         ("--out-dir", {}, None), ("--model", {}, None),
         ("--config", {}, None)),
        cmd_score,
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# every flag's dest -> its argparse options; a config file may set any of
# them
_OPTIONS = {_dest(flag): options for _help, flags, _func in
            _SUBCOMMANDS.values() for flag, options, _field in flags}


_PROG = "gridlang"


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag, options, _field in flags:
        parser.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every subcommand with its flags."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Generate grammar-interpretation datasets and score "
                    "model answers on them.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, func) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        _add_flags(sub, flags)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = rest = None
    if argv and argv[0] in _SUBCOMMANDS:
        # the parser ``build_parser`` hands this subcommand's flags to, so
        # its help and its errors read the same
        _help, flags, func = _SUBCOMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"{_PROG} {argv[0]}")
        _add_flags(parser, flags)
        parser.set_defaults(func=func)
        args, rest = parser.parse_known_args(argv[1:])
    if args is None or rest:
        # no subcommand, or arguments that no flag takes: the full parser
        # reports them as it always has
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
