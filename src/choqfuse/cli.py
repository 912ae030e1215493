"""Command-line interface: fuse, optimize, compare, eval.

Every command reads either the embedded synthetic benchmark
(``--synthetic``) or a labeled score CSV (``--input``), and writes its
results under ``--out``.  Machine-readable results are JSON, series
(fused scores, convergence history, ROC curves, comparison tables) are
CSV.  An optional JSON config file supplies defaults; explicit flags win.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .aggregate import FusionRule, choquet_fuse_batch, rule_fuse_batch
from .data import (DataFormatError, LabeledScoreSet, id_label_columns, load_csv,
                   synthetic_dataset, write_table)
from .ga import GaConfig, evolve
from .measures import ConvergenceError, LambdaMeasure
from .metrics import EvalReport, evaluate_scores, write_roc_csv

__all__ = ["main"]

# weighted_sum is omitted: compare has no weights source, and synthesizing
# uniform weights just duplicates the mean row.
_COMPARE_RULES = ("and", "or", "prod", "mean", "min", "max", "majority_vote")
# Measures of at most this many criteria are printed and reported subset by subset.
_DISPLAY_MAX_N = 6


class _Parser(argparse.ArgumentParser):
    """Raises ValueError (exit 1) instead of exiting; records each option's value type.

    The type map is shared with the subcommand parsers and checks the
    values a config file supplies (``_merge_config``).
    """

    def __init__(self, *args, option_types: dict[str, type] | None = None, **kwargs):
        self.option_types = {} if option_types is None else option_types
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        store_true = kwargs.get("action") == "store_true"
        self.option_types[action.dest] = bool if store_true else kwargs.get("type", str)
        return action

    def error(self, message):  # keep exit-code control in main()
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="choqfuse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    types = parser.option_types

    def add_common(p):
        p.add_argument("--input", help="labeled score CSV (person_id,label,m1,...)")
        p.add_argument("--synthetic", action="store_true",
                       help="use the embedded synthetic benchmark")
        p.add_argument("--normalize", action="store_true",
                       help="min-max normalize each CSV score column")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--config", help="JSON config file; flags override it")

    def add_measure_source(p):
        p.add_argument("--densities", help="comma-separated singleton densities")
        p.add_argument("--measure-file",
                       help="JSON file with a 'densities' list (optimize output)")

    fuse = sub.add_parser("fuse", help="Choquet-fuse every person's scores",
                          option_types=types)
    fuse.set_defaults(run=_cmd_fuse)
    add_common(fuse)
    add_measure_source(fuse)

    optimize = sub.add_parser("optimize", help="learn densities with the GA",
                              option_types=types)
    optimize.set_defaults(run=_cmd_optimize)
    add_common(optimize)
    optimize.add_argument("--seed", type=int, help="GA RNG seed (default 0)")
    optimize.add_argument("--generations", type=int, help="max generations (default 1000)")
    optimize.add_argument("--population", type=int, help="population size (default 30)")
    optimize.add_argument("--stop-eer", type=float, help="early-stop EER (default 0.04)")

    compare = sub.add_parser("compare", help="error-rate table across fusion rules",
                             option_types=types)
    compare.set_defaults(run=_cmd_compare)
    add_common(compare)
    add_measure_source(compare)
    compare.add_argument("--threshold", type=float,
                         help="decision threshold for the rule table (default 0.5)")

    evaluate = sub.add_parser("eval", help="detailed report for one rule or measure",
                              option_types=types)
    evaluate.set_defaults(run=_cmd_eval)
    add_common(evaluate)
    add_measure_source(evaluate)
    evaluate.add_argument("--rule", help="fusion rule name (default: choquet)")
    evaluate.add_argument("--threshold", type=float,
                          help="operating threshold to report (default 0.5)")

    return parser


def _has_type(value, expected: type) -> bool:
    """Whether a JSON value can stand for an option parsed as ``expected``."""
    if isinstance(value, bool) or expected is bool:  # bool is an int subclass
        return isinstance(value, bool) and expected is bool
    return isinstance(value, (int, float) if expected is float else expected)


def _read_json(path: str, what: str):
    """The JSON value in ``path`` (a UTF-8 BOM is skipped); ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None


def _merge_config(args: argparse.Namespace, option_types: dict[str, type]) -> argparse.Namespace:
    """Fill unset flags from the optional JSON config file."""
    if not args.config:
        return args
    values = _read_json(args.config, "config file")
    if not isinstance(values, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr == "config" or attr not in option_types or not hasattr(args, attr):
            raise ValueError(f"config key {key!r} is not an option a config file can set")
        expected = option_types[attr]
        if not _has_type(value, expected):
            raise ValueError(f"config key {key!r} must be of type {expected.__name__}, "
                             f"got {value!r}")
        current = getattr(args, attr)
        if current is None or current is False:  # unset flag; explicit 0 wins
            setattr(args, attr, value)
    return args


def _load_dataset(args) -> LabeledScoreSet:
    if bool(args.input) == bool(args.synthetic):
        raise ValueError("exactly one input source required: --input PATH or --synthetic")
    if args.synthetic:
        if args.normalize:
            raise ValueError("--normalize applies to --input only, not to --synthetic")
        return synthetic_dataset()
    try:
        return load_csv(args.input, normalize=args.normalize)
    except FileNotFoundError:
        raise DataFormatError(f"input file not found: {args.input}") from None


def _load_measure(args, n: int) -> LambdaMeasure | None:
    """The measure of --densities or --measure-file, if either is given, for ``n`` modalities."""
    if args.densities and args.measure_file:
        raise ValueError("give either --densities or --measure-file, not both")
    if args.densities:
        try:
            values = [float(v) for v in args.densities.split(",")]
        except ValueError:
            raise ValueError(f"--densities must be comma-separated numbers, "
                             f"got {args.densities!r}") from None
    elif args.measure_file:
        payload = _read_json(args.measure_file, "measure file")
        densities = payload.get("densities") if isinstance(payload, dict) else None
        if not isinstance(densities, list) or not all(_has_type(v, float) for v in densities):
            raise ValueError(f"measure file {args.measure_file} needs a 'densities' "
                             f"list of numbers")
        values = [float(v) for v in densities]
    else:
        return None
    measure = LambdaMeasure(tuple(values))
    if measure.n != n:
        raise ValueError(f"measure has {measure.n} densities but the data has "
                         f"{n} modalities")
    return measure


def _threshold(args) -> float:
    """The --threshold value (default 0.5), checked before any output is written."""
    threshold = 0.5 if args.threshold is None else args.threshold
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"--threshold must lie in [0, 1], got {threshold!r}")
    return threshold


def _evaluate(dataset: LabeledScoreSet, rule: FusionRule) -> EvalReport:
    """Fuse both classes of ``dataset`` under ``rule`` and evaluate the scores."""
    return evaluate_scores(rule_fuse_batch(dataset.client_scores, rule),
                           rule_fuse_batch(dataset.impostor_scores, rule))


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _subsets(measure: LambdaMeasure) -> list[tuple[int, str, float]]:
    """(mask, label such as "{1,3}", measure) of each non-empty subset, in mask order."""
    n, table = measure.n, measure.dense_table()
    return [(mask, "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}",
             float(table[mask])) for mask in range(1, 1 << n)]


def _measure_json(measure: LambdaMeasure) -> dict:
    payload = {
        "densities": list(measure.densities),
        "lambda": measure.lam,
        "n_modalities": measure.n,
    }
    if measure.n <= _DISPLAY_MAX_N:
        payload["subset_measures"] = {label: value for _, label, value in _subsets(measure)}
    return payload


def _print_measure(measure: LambdaMeasure) -> None:
    print(f"lambda = {measure.lam:.6f}")
    if measure.n > _DISPLAY_MAX_N:
        return
    for _, label, value in sorted(_subsets(measure),
                                  key=lambda s: (bin(s[0]).count("1"), s[0])):
        print(f"m({label}) = {value:.6f}")


def _cmd_fuse(args) -> int:
    dataset = _load_dataset(args)
    measure = _load_measure(args, dataset.n_modalities)
    if measure is None:
        raise ValueError("fuse needs --densities or --measure-file")
    fused = np.concatenate([choquet_fuse_batch(dataset.client_scores, measure),
                            choquet_fuse_batch(dataset.impostor_scores, measure)])
    fused_path = _out_dir(args) / "fused_scores.csv"
    _print_measure(measure)
    write_table(fused_path, ["person_id", "label", "fused"], "%s,%s,%r",
                id_label_columns(dataset) + [fused])
    print(f"wrote {fused_path}")
    return 0


def _cmd_optimize(args) -> int:
    dataset = _load_dataset(args)
    flags = {"population_size": args.population, "max_generations": args.generations,
             "eer_stop_threshold": args.stop_eer, "rng_seed": args.seed}
    cfg = GaConfig(**{k: v for k, v in flags.items() if v is not None})
    best, history = evolve(dataset, cfg)
    measure = LambdaMeasure(best.genes)
    stop_reason = ("eer_threshold" if best.eer <= cfg.eer_stop_threshold
                   else "max_generations")

    out = _out_dir(args)
    history_path = out / "history.csv"
    n = dataset.n_modalities
    write_table(history_path, ["generation", "best_eer"] + [f"gene{i + 1}" for i in range(n)],
                "%s,%r" + ",%r" * n,
                [[r.generation for r in history], [r.eer for r in history],
                 *zip(*(r.genes for r in history))])

    report = _evaluate(dataset, FusionRule("choquet", measure))
    min_rate, min_threshold = report.min_error_rate()
    payload = _measure_json(measure)
    payload.update({
        "eer": best.eer,
        "eer_threshold": report.eer_threshold,
        "min_error_rate": min_rate,
        "min_error_threshold": min_threshold,
        "stop_reason": stop_reason,
        "generations_run": best.generation,
        "config": dataclasses.asdict(cfg),
    })
    measure_path = out / "measure.json"
    _write_json(measure_path, payload)

    print(f"best EER = {best.eer:.6f} after {best.generation} "
          f"generations (stop: {stop_reason})")
    print(f"densities = {', '.join(f'{g:.6f}' for g in best.genes)}")
    print(f"wrote {measure_path} and {history_path}")
    return 0


def _cmd_compare(args) -> int:
    dataset = _load_dataset(args)
    n = dataset.n_modalities
    measure = _load_measure(args, n)
    threshold = _threshold(args)
    out = _out_dir(args)

    rows: list[tuple[str, float]] = []

    def add_row(name: str, report: EvalReport, error_rate: float):
        rows.append((name, 100.0 * error_rate))
        write_roc_csv(report, out / f"roc_{name}.csv")

    for j in range(n):
        report = evaluate_scores(dataset.client_scores[:, j], dataset.impostor_scores[:, j])
        add_row(f"m{j + 1}", report, report.error_rate_at(threshold))

    for tag in _COMPARE_RULES:
        rule = FusionRule(tag=tag, threshold=threshold)
        report = _evaluate(dataset, rule)
        # Decision rules emit 0/1 decisions scored at the fixed 0.5 level;
        # score rules are thresholded at the requested level.
        at = 0.5 if rule.is_decision else threshold
        add_row(tag, report, report.error_rate_at(at))

    if measure is not None:
        report = _evaluate(dataset, FusionRule("choquet", measure))
        # Reported at its best operating point (minimum total error over the
        # threshold sweep).
        rate, _ = report.min_error_rate()
        add_row("choquet", report, rate)
    else:
        print("note: no --densities/--measure-file given; skipping the choquet row")

    width = max(len(name) for name, _ in rows)
    print(f"{'rule':<{width}}  error rate (%)")
    for name, rate in rows:
        print(f"{name:<{width}}  {rate:.2f}")

    table_path = out / "comparison.csv"
    write_table(table_path, ["rule", "error_rate_percent"], "%s,%.2f", list(zip(*rows)))
    print(f"wrote {table_path} and per-rule ROC CSVs")
    return 0


def _cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    n = dataset.n_modalities
    measure = _load_measure(args, n)
    threshold = _threshold(args)
    tag = args.rule or "choquet"
    if tag == "choquet" and measure is None:
        raise ValueError("eval of the choquet rule needs --densities or "
                         "--measure-file")
    rule = FusionRule(tag, measure, (1.0 / n,) * n, threshold)

    report = _evaluate(dataset, rule)
    operating = 0.5 if rule.is_decision else threshold
    min_rate, min_threshold = report.min_error_rate()

    out = _out_dir(args)
    roc_path = out / f"roc_{tag}.csv"
    write_roc_csv(report, roc_path)
    payload = {
        "rule": tag,
        "eer": report.eer,
        "eer_threshold": report.eer_threshold,
        "threshold": operating,
        "error_rate_at_threshold": report.error_rate_at(operating),
        "min_error_rate": min_rate,
        "min_error_threshold": min_threshold,
        "n_clients": report.n_clients,
        "n_impostors": report.n_impostors,
    }
    if tag == "choquet":
        payload["measure"] = _measure_json(measure)
    report_path = out / "eval.json"
    _write_json(report_path, payload)
    print(f"{tag}: EER = {report.eer:.4f} at t = {report.eer_threshold:.4f}; "
          f"error at t = {operating:g}: {100.0 * payload['error_rate_at_threshold']:.2f}%")
    print(f"wrote {report_path} and {roc_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args, parser.option_types)
        return args.run(args)
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
