"""Operator command line: gen, sweep, eval, score.

Option precedence is flags over config file over defaults.  The config
file is plain ``key = value`` lines (``#`` comments allowed) using the
flag names of any subcommand but ``config``; any other key, or a value
its flag would refuse, is refused with its line when the file is loaded.
``main`` loads it once and fills each flag left unset, so a command reads
one namespace.
Every artifact embeds the effective configuration it was produced from,
so a file is reproducible from its own header; nothing is timestamped.
The exit status is nonzero exactly when an operation errored; metric
values never affect it.
"""

from __future__ import annotations

import argparse
import json
# argparse's first message lookup imports locale: imported here, it loads
# with this module, not in each command forked from an interpreter that
# has imported it
import locale  # noqa: F401
import sys
from collections import Counter
from dataclasses import MISSING, fields, replace
from pathlib import Path

from gridlang.grammar import LexiconMode, Style
from gridlang.harness import (
    EndpointConfig,
    HarnessError,
    PromptConfig,
    RunResult,
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
    check_utf8,
    make_dataset,
    read_dataset,
    write_dataset,
)


def _load_config(path: str | None) -> dict:
    """The settings of a config file, each read as its flag's row reads
    it on the command line."""
    if path is None:
        return {}
    config = {}
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, 1):
            try:
                check_utf8(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = text.partition("=")
            key = key.strip().replace("-", "_")
            if key == "config":
                raise ValueError(f"{path}:{line_no}: config cannot be set "
                                 f"in a config file")
            # a key of another subcommand is allowed, so one file serves all
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{line_no}: no option is named "
                                 f"{key!r}")
            try:
                config[key] = _read_value(_OPTIONS[key], value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
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


def _resolve(args, name: str, default=MISSING):
    """flag or config value > default; a MISSING default means required."""
    value = getattr(args, name)
    if value is not None:
        return value
    if default is MISSING:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return default


def _settings(cls, args, flags):
    """A ``cls`` from the rows of ``flags`` that name one of its fields;
    a field that no flag or config key sets keeps its default."""
    defaults = {f.name: f.default for f in fields(cls)}
    return cls(**{field: _resolve(args, _dest(flag), defaults[field])
                  for flag, _options, field in flags if field in defaults})


def _gen_settings(args):
    kind = TaskKind(_resolve(args, "task"))
    n = _resolve(args, "n")
    style = Style(_resolve(args, "style", "block"))
    mode = LexiconMode(_resolve(args, "lexicon", "natural"))
    params = _settings(GenParams, args, _GEN_FLAGS)
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
    kind, n, style, mode, params = _gen_settings(args)
    out = Path(_resolve(args, "out"))
    instances = make_dataset(kind, n, style, mode, params)
    write_dataset(instances, out,
                  config=_gen_provenance(kind, n, style, mode, params))
    print(f"wrote {out}")
    _print_gen_summary(instances)
    return 0


# --- eval / score ------------------------------------------------------------


def _write_reports(out_dir: Path, kind: TaskKind, metrics: Metrics,
                   provenance: dict) -> str:
    """Write report.md and report.csv for ``provenance``'s model on ``kind``;
    return the report text without its provenance section."""
    rows = [(provenance["model"], kind, metrics)]
    report = render_report(rows)
    (out_dir / "report.md").write_text(
        report + "\n## Provenance\n\n```json\n"
        + json.dumps(provenance, indent=2) + "\n```\n", encoding="utf-8")
    csv_text = "# " + json.dumps(provenance) + "\n" + render_csv(rows)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    return report


def _evaluate(args, dataset: list[TaskInstance], endpoint: EndpointConfig,
              pc: PromptConfig, out_dir: Path,
              provenance: dict) -> tuple[RunResult, str]:
    """Run ``dataset`` against ``endpoint`` and write responses.jsonl,
    results.jsonl and the reports under ``out_dir``, each headed by
    ``provenance`` with the endpoint and prompt settings added; return
    the run and its report text.  The one eval path of eval and sweep."""
    provenance = {**provenance, "model": endpoint.model_id,
                  "base_url": endpoint.base_url,
                  "temperature": endpoint.temperature,
                  "max_tokens": endpoint.max_tokens,
                  "shots": pc.shots, "cot": pc.cot}
    result = run_evaluation(dataset, endpoint, pc,
                            cache_dir=_resolve(args, "cache_dir", "cache"),
                            out_dir=out_dir, provenance=provenance,
                            permissive=_resolve(args, "permissive", False))
    return result, _write_reports(out_dir, dataset[0].kind, result.metrics,
                                  provenance)


def cmd_eval(args) -> int:
    dataset_path = _resolve(args, "dataset")
    dataset = read_dataset(dataset_path)
    endpoint = _settings(EndpointConfig, args, _ENDPOINT_FLAGS)
    pc = _settings(PromptConfig, args, _ENDPOINT_FLAGS)
    out_dir = Path(_resolve(args, "out_dir"))
    result, report = _evaluate(args, dataset, endpoint, pc, out_dir,
                               {"command": "eval",
                                "dataset": str(dataset_path)})
    print(report, end="")
    print(f"model calls: {result.model_calls}")
    print(f"wrote {out_dir / 'results.jsonl'} and reports under {out_dir}")
    return 0


def cmd_score(args) -> int:
    dataset_path = _resolve(args, "dataset")
    responses_path = _resolve(args, "responses")
    dataset = read_dataset(dataset_path)
    kind = dataset_kind(dataset)
    responses = read_responses(responses_path)
    out_dir = Path(_resolve(args, "out_dir"))
    answers = []
    for inst in dataset:
        if inst.id not in responses:
            raise ValueError(f"no captured response for instance {inst.id}")
        row = responses[inst.id]
        answers.append((row.get("prompt_sha256"), row["response"]))
    model = _resolve(args, "model", "captured")
    provenance = {
        "command": "score",
        "dataset": str(dataset_path),
        "responses": str(responses_path),
        "model": model,
    }
    _records, metrics, _rows = score_answers(dataset, answers, out_dir,
                                             provenance)
    print(_write_reports(out_dir, kind, metrics, provenance), end="")
    print(f"wrote {out_dir / 'results.jsonl'} and reports under {out_dir}")
    return 0


# --- sweep -------------------------------------------------------------------


def cmd_sweep(args) -> int:
    axis = _resolve(args, "axis")
    values = [_read_value(_OPTIONS[axis], v.strip())
              for v in _resolve(args, "values").split(",") if v.strip()]
    if not values:
        raise ValueError("no sweep values given")
    # a value read twice would write one leaf twice
    repeated = [value for value, count in Counter(values).items()
                if count > 1]
    if repeated:
        raise ValueError(f"sweep value {repeated[0]} is given more than once")
    kind, n, _style, mode, _params = _gen_settings(args)
    out_dir = Path(_resolve(args, "out_dir"))
    endpoint = (_settings(EndpointConfig, args, _ENDPOINT_FLAGS)
                if args.base_url is not None else None)

    def variant(value) -> tuple[Style, GenParams, PromptConfig]:
        """The settings of the same flags with the axis flag set to
        ``value``, and a seed derived for the leaf."""
        leaf_args = argparse.Namespace(**{**vars(args), axis: value})
        pc = _settings(PromptConfig, leaf_args, _ENDPOINT_FLAGS)
        _kind, _n, style, _mode, params = _gen_settings(leaf_args)
        # shots only changes the prompt; every value shares one dataset
        tag = "base" if axis == "shots" else str(value)
        seed = derive_seed(params.seed, "sweep", axis, tag)
        return style, replace(params, seed=seed), pc

    # the constructors refuse a bad value before any leaf is written
    variants = [(value, *variant(value)) for value in values]
    entries = []
    for value, v_style, v_params, v_pc in variants:
        leaf = out_dir / f"{axis}-{value}"
        leaf.mkdir(parents=True, exist_ok=True)
        dataset_path = leaf / "dataset.jsonl"
        instances = make_dataset(kind, n, v_style, mode, v_params)
        provenance = _gen_provenance(kind, n, v_style, mode, v_params)
        provenance.update({"command": "sweep", "axis": axis, "value": value})
        write_dataset(instances, dataset_path, config=provenance)
        print(f"wrote {dataset_path}")
        if endpoint is not None:
            result, _report = _evaluate(args, instances, endpoint, v_pc,
                                        leaf, provenance)
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
            ("--axis", {"choices": _SWEEP_AXES}, None),
            ("--values", {"help": "comma-separated axis values"}, None),
            ("--out-dir", {}, None),
        ) + _ENDPOINT_FLAGS + (("--config", {}, None),),
        cmd_sweep,
    ),
    "eval": (
        "run a model over a dataset",
        (("--dataset", {}, None), ("--out-dir", {}, None))
        + _ENDPOINT_FLAGS + (("--config", {}, None),),
        cmd_eval,
    ),
    "score": (
        "re-score captured responses without network",
        (("--dataset", {}, None), ("--responses", {}, None),
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
        for key, value in _load_config(args.config).items():
            if getattr(args, key, MISSING) is None:  # a flag left unset
                setattr(args, key, value)
        return args.func(args)
    except (ValueError, OSError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
