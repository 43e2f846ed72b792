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
import hashlib
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from gridlang.codec import ParseError
from gridlang.grammar import LexiconMode, Style
from gridlang.harness import (
    EndpointConfig,
    HarnessError,
    PromptConfig,
    read_responses,
    run_evaluation,
    score_instance,
    write_results,
)
from gridlang.metrics import (
    MetricsTable,
    aggregate,
    render_csv,
    render_long_csv,
    render_report,
)
from gridlang.sampler import GenParams
from gridlang.seeding import derive_seed
from gridlang.tasks import (
    DATASET_FORMAT,
    MalformedRecordError,
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


def _dataset_kind(dataset: list[TaskInstance]) -> TaskKind:
    kinds = {inst.kind for inst in dataset}
    if len(kinds) != 1:
        raise CliError("dataset mixes task kinds" if kinds
                       else "empty dataset")
    return kinds.pop()


def _write_reports(table: MetricsTable, out_dir: Path,
                   provenance: dict) -> None:
    report = render_report(table)
    report += ("\n## Provenance\n\n```json\n"
               + json.dumps(provenance, indent=2) + "\n```\n")
    (out_dir / "report.md").write_text(report, encoding="utf-8")
    csv_text = "# " + json.dumps(provenance) + "\n" + render_csv(table)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    dataset = read_dataset(args.dataset)
    kind = _dataset_kind(dataset)
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
    table = MetricsTable()
    table.add(endpoint.model_id, kind, result.metrics)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports(table, out_dir, provenance)
    print(render_report(table), end="")
    print(f"model calls: {result.model_calls}")
    print(f"wrote {result.results_path} and reports under {out_dir}")
    return 0


def cmd_score(args) -> int:
    config = _load_config(args.config)
    dataset = read_dataset(args.dataset)
    kind = _dataset_kind(dataset)
    responses = read_responses(args.responses)
    out_dir = Path(_resolve(args, config, "out_dir", str))
    records = []
    rows = []
    for inst in dataset:
        if inst.id not in responses:
            raise CliError(f"no captured response for instance {inst.id}")
        row = responses[inst.id]
        records.append(score_instance(inst, row["response"]))
        kept = {
            "instance_id": inst.id,
            "response_sha256": hashlib.sha256(
                row["response"].encode("utf-8")).hexdigest(),
        }
        if "prompt_sha256" in row:
            kept["prompt_sha256"] = row["prompt_sha256"]
        rows.append(kept)
    metrics = aggregate(records)
    model = _resolve(args, config, "model", str, "captured")
    provenance = {
        "command": "score",
        "dataset": str(args.dataset),
        "responses": str(args.responses),
        "model": model,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results(records, rows, out_dir / "results.jsonl", provenance)
    table = MetricsTable()
    table.add(model, kind, metrics)
    _write_reports(table, out_dir, provenance)
    print(render_report(table), end="")
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
            table = MetricsTable()
            table.add(endpoint.model_id, kind, result.metrics)
            _write_reports(table, leaf, provenance)
            entries.append((value, endpoint.model_id, kind.value,
                            result.metrics))
    if entries:
        csv_path = out_dir / "sweep.csv"
        csv_path.write_text(render_long_csv(axis, entries), encoding="utf-8")
        print(f"wrote {csv_path}")
    return 0


# --- argument wiring ---------------------------------------------------------


def _add_gen_flags(sub) -> None:
    sub.add_argument("--task", choices=[k.value for k in TaskKind])
    sub.add_argument("--n", type=int)
    sub.add_argument("--depth", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--E", type=int)
    sub.add_argument("--max-block", dest="max_block", type=int)
    sub.add_argument("--style", choices=[s.value for s in Style])
    sub.add_argument("--lexicon", choices=[m.value for m in LexiconMode])
    sub.add_argument("--seed", type=int)


def _add_endpoint_flags(sub) -> None:
    sub.add_argument("--base-url", dest="base_url")
    sub.add_argument("--model")
    sub.add_argument("--auth-env", dest="auth_env")
    sub.add_argument("--temperature", type=float)
    sub.add_argument("--max-tokens", dest="max_tokens", type=int)
    sub.add_argument("--timeout", type=float)
    sub.add_argument("--max-retries", dest="max_retries", type=int)
    sub.add_argument("--parallelism", type=int)
    sub.add_argument("--retry-backoff", dest="retry_backoff", type=float)
    sub.add_argument("--shots", type=int)
    sub.add_argument("--cot", action=argparse.BooleanOptionalAction,
                     default=None)
    sub.add_argument("--cache-dir", dest="cache_dir")
    sub.add_argument("--permissive", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlang",
        description="Generate grammar-interpretation datasets and score "
                    "model answers on them.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    gen = subs.add_parser("gen", help="generate a dataset file")
    _add_gen_flags(gen)
    gen.add_argument("--out")
    gen.add_argument("--config")
    gen.set_defaults(func=cmd_gen)

    sweep = subs.add_parser(
        "sweep", help="generate (and optionally evaluate) a dataset family "
                      "along one axis"
    )
    _add_gen_flags(sweep)
    sweep.add_argument("--axis", choices=_SWEEP_AXES, required=True)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values")
    sweep.add_argument("--out-dir", dest="out_dir")
    _add_endpoint_flags(sweep)
    sweep.add_argument("--config")
    sweep.set_defaults(func=cmd_sweep)

    ev = subs.add_parser("eval", help="run a model over a dataset")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out-dir", dest="out_dir")
    _add_endpoint_flags(ev)
    ev.add_argument("--config")
    ev.set_defaults(func=cmd_eval)

    score = subs.add_parser(
        "score", help="re-score captured responses without network"
    )
    score.add_argument("--dataset", required=True)
    score.add_argument("--responses", required=True)
    score.add_argument("--out-dir", dest="out_dir")
    score.add_argument("--model")
    score.add_argument("--config")
    score.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, HarnessError,
            MalformedRecordError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
