"""Command-line front end: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numeric or
convergence error. Seeds default to 42; the SYN_SEED environment variable
overrides that default whenever --seed is not given explicitly.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Optional

import numpy as np

from . import classifiers, framing, model_io, pipeline, regressors, traffic
from .classifiers import TrainConfig
from .errors import ConfigError, NumericError, read_lines
from .pipeline import ExperimentConfig
from .regressors import GridSpec

DEFAULT_SEED = 42


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(value: Optional[int]) -> int:
    source = "--seed"
    if value is None:
        env = os.environ.get("SYN_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            value, source = int(env), "SYN_SEED"
        except ValueError:
            raise ConfigError(f"SYN_SEED must be an integer, got {env!r}") from None
    if value < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"{source} must be non-negative, got {value}")
    return value


def _echo_config(args, **derived) -> None:
    """Print every parsed argument in flag order, None as -; derived values
    go before the last argument."""
    pairs = [(k, v) for k, v in vars(args).items() if k != "subcommand"]
    pairs[-1:-1] = derived.items()
    text = " ".join(f"{k}={'-' if v is None else v}" for k, v in pairs)
    print(f"config: subcommand={args.subcommand} {text}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="synwatch", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="synthesize a labeled interval series")
    p.add_argument("--intervals", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--attack-fraction", type=float, default=0.2)
    p.add_argument("--multiplier", type=float, default=10.0)
    p.add_argument("--burst", type=int, default=6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="bucket a packet log into an interval series")
    p.add_argument("--log", required=True)
    p.add_argument("--interval", type=int, default=10)
    p.add_argument("--dst", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inject", help="inject attack bursts into a clean series")
    p.add_argument("--series", required=True)
    p.add_argument("--attack-fraction", type=float, default=0.2)
    p.add_argument("--multiplier", type=float, default=10.0)
    p.add_argument("--burst", type=int, default=6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("frame", help="cut a series into 12-interval frames")
    p.add_argument("--series", required=True)
    p.add_argument("--sigma", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("elbow", help="wcss elbow curve over k = 1..kmax")
    p.add_argument("--series", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fit a model and save it")
    p.add_argument("--model", required=True, choices=pipeline.MODEL_KINDS)
    p.add_argument("--series", required=True)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="run an experiment or score a saved model")
    p.add_argument("--model", required=True, choices=pipeline.MODEL_KINDS)
    p.add_argument("--series", required=True)
    p.add_argument("--model-file", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True)

    p = sub.add_parser("predict", help="forecast attack status for the series tail")
    p.add_argument("--model", required=True, choices=pipeline.PREDICTION_KINDS)
    p.add_argument("--series", required=True)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="pretty-print one or more report files")
    p.add_argument("reports", nargs="+")

    return parser


# --------------------------------------------------------------------------
# subcommand bodies


def _cmd_generate(args) -> int:
    cfg = traffic.SynthesisConfig(n_intervals=args.intervals, baseline_rate=args.rate,
                                  attack_fraction=args.attack_fraction,
                                  attack_multiplier=args.multiplier,
                                  burst_length=args.burst, seed=args.seed)
    _echo_config(args)
    series = traffic.inject_attacks(traffic.generate_baseline(cfg), cfg)
    traffic.write_series(series, args.out)
    return 0


def _cmd_ingest(args) -> int:
    _echo_config(args)
    records = traffic.parse_packet_log(read_lines(args.log))
    series = traffic.bucketize(records, args.interval, dst_filter=args.dst)
    traffic.write_series(series, args.out)
    return 0


def _cmd_inject(args) -> int:
    series = traffic.read_series(args.series)
    if len(series) == 0 or series.counts.mean() <= 0:
        raise ConfigError("cannot infer a baseline rate from an empty or all-zero series")
    cfg = traffic.SynthesisConfig(n_intervals=len(series),
                                  baseline_rate=float(series.counts.mean()),
                                  attack_fraction=args.attack_fraction,
                                  attack_multiplier=args.multiplier,
                                  burst_length=args.burst, seed=args.seed)
    _echo_config(args, baseline_rate=round(cfg.baseline_rate, 6))
    traffic.write_series(traffic.inject_attacks(series, cfg), args.out)
    return 0


def _cmd_frame(args) -> int:
    _echo_config(args)
    series = traffic.read_series(args.series)
    frames = framing.make_frames(series, framing.FramingConfig(with_sigma=args.sigma))
    framing.write_frames(frames, args.out)
    return 0


def _cmd_elbow(args) -> int:
    _echo_config(args)
    series = traffic.read_series(args.series)
    X = series.counts.astype(np.float64).reshape(-1, 1)
    curve, chosen = classifiers.elbow_curve(X, args.kmax, TrainConfig(seed=args.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        for k, wcss in curve:
            fh.write(f"{k},{format(wcss, '.17g')}\n")
        fh.write(f"chosen={chosen}\n")
    print(f"chosen k = {chosen}")
    return 0


def _cmd_train(args) -> int:
    _echo_config(args)
    series = traffic.read_series(args.series)
    cfg = ExperimentConfig(model_kind=args.model, seed=args.seed,
                           grid=GridSpec() if args.grid else None)
    model, table = pipeline.fit_model(series, cfg)
    if table is not None:
        print(regressors.format_cv_table(table))
    model_io.save_model(model, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    _echo_config(args)
    series = traffic.read_series(args.series)
    cfg = ExperimentConfig(model_kind=args.model, seed=args.seed)
    if args.model_file is not None:
        report = pipeline.score_model(model_io.load_model(args.model_file), series, cfg)
        report.config = {"model_kind": args.model, "seed": args.seed,
                         "model_file": args.model_file}
        pipeline.write_report(report, args.report)
        return 0
    report = pipeline.run_experiment(series, cfg)
    pipeline.write_report(report, args.report)
    print(f"accuracy_pct={report.accuracy_pct:.3f} f1={report.f1:.6f}")
    return 0


def _cmd_predict(args) -> int:
    _echo_config(args)
    series = traffic.read_series(args.series)
    cfg = ExperimentConfig(model_kind=args.model, seed=args.seed,
                           grid=GridSpec() if args.grid else None)
    report, pred = pipeline.run_prediction(series, cfg)
    pipeline.write_report(report, args.report)
    pipeline.write_predictions(pred, args.out)
    r2 = "-" if report.r2 is None else f"{report.r2:.6f}"  # a constant tail has no r2
    print(f"accuracy_pct={report.accuracy_pct:.3f} r2={r2} rmse={report.rmse:.6f}")
    return 0


def _cmd_report(args) -> int:
    columns = ["model_kind", "accuracy_pct", "fp_pct", "fn_pct", "f1", "r2", "rmse",
               "train_seconds", "infer_seconds"]
    rows = []
    for path in args.reports:
        data = pipeline.read_report(path)
        rows.append([data.get(col, "-") for col in columns])
    widths = [max(len(col), *(len(r[i]) for r in rows)) for i, col in enumerate(columns)]
    print("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(val.ljust(w) for val, w in zip(row, widths)))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "inject": _cmd_inject,
    "frame": _cmd_frame,
    "elbow": _cmd_elbow,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    with warnings.catch_warnings():
        # one line per warning, without the source path and line Python adds
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            if hasattr(args, "seed"):
                args.seed = _resolve_seed(args.seed)
            return _COMMANDS[args.subcommand](args)
        except NumericError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return 3
        except (ConfigError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entrypoint() -> None:
    sys.exit(main())
