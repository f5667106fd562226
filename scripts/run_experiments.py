#!/usr/bin/env python3
"""Run every experiment family on synthetic traffic and print result tables.

Covers the four pipelines end to end: supervised detection (LGR and the
three ANN variants), unsupervised K-Means with its elbow check,
semi-supervised K-Means hybrids, and the three status forecasters. Reports
land in --out as plain-text files next to the prediction series data.
"""

import argparse
import sys
import time
from pathlib import Path

from synwatch.classifiers import TrainConfig, elbow_curve
from synwatch.pipeline import (PREDICTION_KINDS, SEMI_KINDS, SUPERVISED_KINDS,
                               ExperimentConfig, run_prediction, run_semi_supervised,
                               run_supervised, run_unsupervised, write_predictions,
                               write_report)
from synwatch.regressors import GridSpec
from synwatch.traffic import (SynthesisConfig, generate_baseline, inject_attacks,
                              inject_periodic_attacks, write_series)


def detection_row(name, report, wall):
    return (f"{name:<28} {report.accuracy_pct:>8.3f} {report.fp_pct:>7.3f} "
            f"{report.fn_pct:>7.3f} {report.f1:>6.3f} {wall:>7.2f}s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiment_output", help="report directory")
    parser.add_argument("--intervals", type=int, default=10000)
    parser.add_argument("--rate", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--skip-grid", action="store_true",
                        help="use default kernel hyperparameters instead of grid search")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg = SynthesisConfig(n_intervals=args.intervals, baseline_rate=args.rate,
                          attack_fraction=0.2, attack_multiplier=10.0,
                          burst_length=6, seed=args.seed)
    series = inject_attacks(generate_baseline(cfg), cfg)
    write_series(series, out_dir / "detection_series.csv")
    print(f"detection series: {len(series)} intervals, "
          f"{int(series.labels.sum())} attacked, baseline rate {args.rate}")

    header = f"{'model':<28} {'acc%':>8} {'fp%':>7} {'fn%':>7} {'f1':>6} {'wall':>8}"

    print("\n== supervised detection ==")
    print(header)
    for kind in SUPERVISED_KINDS:
        t0 = time.perf_counter()
        report = run_supervised(series, ExperimentConfig(model_kind=kind, seed=args.seed))
        wall = time.perf_counter() - t0
        write_report(report, out_dir / f"supervised_{kind}.txt")
        print(detection_row(kind, report, wall))

    print("\n== unsupervised detection ==")
    print(header)
    t0 = time.perf_counter()
    report = run_unsupervised(series, ExperimentConfig(model_kind="kmeans", seed=args.seed))
    write_report(report, out_dir / "unsupervised_kmeans.txt")
    print(detection_row("kmeans", report, time.perf_counter() - t0))

    curve, chosen = elbow_curve(series.counts.astype(float).reshape(-1, 1), 6,
                                TrainConfig(seed=args.seed))
    print(f"elbow check: chosen k = {chosen}; "
          f"wcss = {', '.join(f'{w:.3g}' for _, w in curve)}")

    print("\n== semi-supervised detection ==")
    print(header)
    for kind in SEMI_KINDS:
        t0 = time.perf_counter()
        report = run_semi_supervised(series, ExperimentConfig(model_kind=kind, seed=args.seed))
        wall = time.perf_counter() - t0
        write_report(report, out_dir / f"semi_{kind.replace('+', '_')}.txt")
        print(detection_row(kind, report, wall))

    pcfg = SynthesisConfig(n_intervals=600, baseline_rate=args.rate,
                           attack_multiplier=10.0, burst_length=6, seed=args.seed)
    pseries = inject_periodic_attacks(generate_baseline(pcfg), pcfg, period=50)
    write_series(pseries, out_dir / "prediction_series.csv")

    print("\n== attack prediction (status ~ time, count; chronological 80:20) ==")
    print(f"{'model':<12} {'acc%':>8} {'r2':>8} {'rmse':>8} {'wall':>8}")
    for kind in PREDICTION_KINDS:
        grid = None if (kind == "lgr_reg" or args.skip_grid) else GridSpec()
        t0 = time.perf_counter()
        report, pred = run_prediction(pseries, ExperimentConfig(model_kind=kind,
                                                                seed=args.seed, grid=grid))
        wall = time.perf_counter() - t0
        write_report(report, out_dir / f"prediction_{kind}.txt")
        write_predictions(pred, out_dir / f"prediction_{kind}_series.csv")
        print(f"{kind:<12} {report.accuracy_pct:>8.2f} {report.r2:>8.4f} "
              f"{report.rmse:>8.4f} {wall:>7.2f}s")

    print(f"\nreports written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
