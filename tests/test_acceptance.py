"""Acceptance suite: every criterion prints one [criterion NN] PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The reference series is 10,000 intervals at rate 50, multiplier 10,
attack fraction 0.2, burst 6, seed 42; the forecasting series carries a
6-interval burst every 50 intervals.
"""

import time

import numpy as np
import pytest

from oracles import (exhaustive_wcss_1d, mlp_gradcheck_worst, svr_qp_oracle)
from synwatch.classifiers import TrainConfig, elbow_curve, kmeans_fit
from synwatch.cli import main
from synwatch.metrics import (Confusion, classification_scores, confusion, r_squared,
                              rmse)
from synwatch.pipeline import (ExperimentConfig, run_prediction, run_semi_supervised,
                               run_supervised, run_unsupervised)
from synwatch.regressors import GridSpec, krr_fit, rbf_matrix, svr_fit
from synwatch.traffic import write_series


def _criterion(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def supervised_reports(reference_series):
    out = {}
    for kind in ("lgr", "ann", "ann_frames", "ann_frames_sigma"):
        t0 = time.perf_counter()
        report = run_supervised(reference_series, ExperimentConfig(model_kind=kind))
        out[kind] = (report, time.perf_counter() - t0)
    return out


def test_criterion_01_semi_supervised_perfection(reference_series):
    details = []
    ok = True
    for kind in ("kmeans+lgr", "kmeans+ann"):
        t0 = time.perf_counter()
        report = run_semi_supervised(reference_series, ExperimentConfig(model_kind=kind))
        wall = time.perf_counter() - t0
        ok &= (report.accuracy_pct == 100.0 and report.fp_pct == 0.0
               and report.fn_pct == 0.0 and wall <= 60.0)
        details.append(f"{kind}: acc={report.accuracy_pct:.3f} fp={report.fp_pct:.3f} "
                       f"fn={report.fn_pct:.3f} wall={wall:.1f}s")
    _criterion(1, "semi-supervised perfection", ok, "; ".join(details))


def test_criterion_02_supervised_trend(supervised_reports):
    lgr, t_lgr = supervised_reports["lgr"]
    ann, t_ann = supervised_reports["ann"]
    sigma, t_sigma = supervised_reports["ann_frames_sigma"]
    total = t_lgr + t_ann + t_sigma
    ok = (lgr.accuracy_pct >= 99.0 and lgr.fp_pct == 0.0
          and ann.accuracy_pct >= 99.0 and ann.fp_pct == 0.0
          and sigma.accuracy_pct >= 99.0 and total <= 120.0)
    _criterion(2, "supervised trend", ok,
               f"lgr acc={lgr.accuracy_pct:.3f} fp={lgr.fp_pct:.3f}; "
               f"ann acc={ann.accuracy_pct:.3f} fp={ann.fp_pct:.3f}; "
               f"ann_frames_sigma acc={sigma.accuracy_pct:.3f}; total={total:.1f}s")


def test_criterion_03_unsupervised_trend(reference_series):
    report = run_unsupervised(reference_series, ExperimentConfig(model_kind="kmeans"))
    ok = report.accuracy_pct >= 95.0 and report.fp_pct == 0.0
    _criterion(3, "unsupervised trend", ok,
               f"kmeans acc={report.accuracy_pct:.3f} fp={report.fp_pct:.3f}")


def test_criterion_04_elbow(reference_series):
    X = reference_series.counts.astype(float).reshape(-1, 1)
    curve, chosen = elbow_curve(X, 6, TrainConfig())
    wcss = [w for _, w in curve]
    non_increasing = all(b <= a for a, b in zip(wcss, wcss[1:]))
    ok = chosen == 2 and non_increasing
    _criterion(4, "elbow selects k=2", ok,
               f"chosen={chosen} non_increasing={non_increasing}")


def test_criterion_05_framing_speed(supervised_reports):
    ann, _ = supervised_reports["ann"]
    frames, _ = supervised_reports["ann_frames"]
    t_ann = ann.train_seconds + ann.infer_seconds
    t_frames = frames.train_seconds + frames.infer_seconds
    ok = t_frames < t_ann
    _criterion(5, "framing is faster than per-interval ann", ok,
               f"ann_frames={t_frames:.2f}s < ann={t_ann:.2f}s")


def test_criterion_06_prediction_trend(periodic_series):
    t0 = time.perf_counter()
    results = {}
    for kind in ("lgr_reg", "krr", "svr"):
        grid = None if kind == "lgr_reg" else GridSpec()
        report, _ = run_prediction(periodic_series,
                                   ExperimentConfig(model_kind=kind, grid=grid))
        results[kind] = report
    total = time.perf_counter() - t0
    ok = all(results[k].accuracy_pct >= 90.0 for k in results)
    for kind in ("lgr_reg", "krr"):
        ok &= results[kind].r2 >= 0.75 and results[kind].rmse <= 0.25
    ok &= total <= 120.0
    detail = "; ".join(f"{k}: acc={r.accuracy_pct:.2f} r2={r.r2:.3f} rmse={r.rmse:.3f}"
                       for k, r in results.items())
    _criterion(6, "prediction trend", ok, f"{detail}; total={total:.1f}s")


def test_criterion_07_krr_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 80))
        X = rng.uniform(-10.0, 10.0, size=(n, 1))
        y = rng.normal(scale=5.0, size=n)
        lam = float(rng.choice([1e-3, 1e-2, 0.1, 1.0, 10.0]))
        gamma = float(rng.choice([0.01, 0.1, 1.0]))
        model = krr_fit(X, y, lam, gamma)
        K = rbf_matrix(X, X, gamma)
        residual = float(np.abs((K + lam * np.eye(n)) @ model.alphas - y).max())
        worst = max(worst, residual / max(1.0, float(np.abs(y).max())))
    single = krr_fit(np.array([[0.0]]), np.array([1.0]), lam=1.0, gamma=1.0)
    analytic = abs(single.alphas[0] - 0.5)
    ok = worst <= 1e-8 and analytic <= 1e-12
    _criterion(7, "krr solve oracle", ok,
               f"worst normalized residual={worst:.2e}; |alpha-0.5|={analytic:.2e}")


def test_criterion_08_svr_oracle():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    model = svr_fit(X, y, C=10.0, epsilon=0.01, gamma=1.0)
    _, oracle_obj = svr_qp_oracle(X, y, 10.0, 0.01, 1.0)
    gap = abs(model.objective - oracle_obj)
    net = abs(float(model.dual_deltas.sum()))
    ok = gap <= 1e-3 and model.violation <= 1e-3 and net <= 1e-8
    _criterion(8, "svr dual oracle", ok,
               f"objective gap={gap:.2e}; kkt violation={model.violation:.2e}; "
               f"sum delta={net:.2e}")


def test_criterion_09_mlp_gradient_check():
    worst = max(mlp_gradcheck_worst(seed) for seed in range(10))
    ok = worst <= 1e-4
    _criterion(9, "mlp gradient check", ok, f"max relative error={worst:.2e}")


def test_criterion_10_kmeans_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        vals = rng.uniform(0.0, 100.0, size=n)
        model = kmeans_fit(vals.reshape(-1, 1), 2,
                           TrainConfig(seed=int(rng.integers(0, 2 ** 31))), restarts=20)
        worst = max(worst, abs(model.wcss - exhaustive_wcss_1d(vals)))
    ok = worst <= 1e-9
    _criterion(10, "kmeans exhaustive oracle", ok, f"worst wcss gap={worst:.2e}")


def test_criterion_11_metrics_hand_checks():
    c = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    exact_counts = (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
    acc, fp_pct, fn_pct, f1 = classification_scores(c)
    scores_ok = (abs(acc - 50.0) <= 1e-12 and abs(f1 - 0.5) <= 1e-12
                 and abs(fp_pct - 25.0) <= 1e-12 and abs(fn_pct - 25.0) <= 1e-12)
    degenerate = classification_scores(Confusion(0, 4, 0, 0))[3] == 1.0
    r2_ok = (abs(r_squared([0.0, 1.0], [0.5, 0.5]) - 0.0) <= 1e-12
             and r_squared([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 1.0)
    rmse_ok = (abs(rmse([0.0, 1.0], [0.5, 0.5]) - 0.5) <= 1e-12
               and rmse([1.0, 2.0], [1.0, 2.0]) == 0.0)
    ok = exact_counts and scores_ok and degenerate and r2_ok and rmse_ok
    _criterion(11, "metrics hand checks", ok,
               f"counts={exact_counts} scores={scores_ok} degenerate_f1={degenerate} "
               f"r2={r2_ok} rmse={rmse_ok}")


def test_criterion_12_cli_determinism(tmp_path, periodic_series):
    def strip_timing(path):
        return "\n".join(line for line in path.read_text().splitlines()
                         if not line.startswith(("train_seconds=", "infer_seconds=")))

    mismatches = []
    series = {}
    for tag in ("a", "b"):
        out = tmp_path / f"series_{tag}.csv"
        main(["generate", "--intervals", "600", "--rate", "50",
              "--attack-fraction", "0.2", "--seed", "11", "--out", str(out)])
        series[tag] = out
    if series["a"].read_bytes() != series["b"].read_bytes():
        mismatches.append("generate")

    frames = {}
    for tag in ("a", "b"):
        out = tmp_path / f"frames_{tag}.csv"
        main(["frame", "--series", str(series[tag]), "--sigma", "--out", str(out)])
        frames[tag] = out
    if frames["a"].read_bytes() != frames["b"].read_bytes():
        mismatches.append("frame")

    reports = {}
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.txt"
        main(["evaluate", "--model", "kmeans+lgr", "--series", str(series[tag]),
              "--report", str(out)])
        reports[tag] = out
    if strip_timing(reports["a"]) != strip_timing(reports["b"]):
        mismatches.append("evaluate")

    pseries = tmp_path / "periodic.csv"
    write_series(periodic_series, pseries)
    preds = {}
    for tag in ("a", "b"):
        rep, out = tmp_path / f"pred_report_{tag}.txt", tmp_path / f"pred_{tag}.csv"
        main(["predict", "--model", "krr", "--series", str(pseries),
              "--report", str(rep), "--out", str(out)])
        preds[tag] = (strip_timing(rep), out.read_bytes())
    if preds["a"] != preds["b"]:
        mismatches.append("predict")

    ok = not mismatches
    _criterion(12, "cli determinism", ok,
               "byte-identical" if ok else f"mismatch in: {', '.join(mismatches)}")
