import numpy as np
import pytest

from synwatch import classifiers, distances, regressors
from synwatch.classifiers import kmeans_fit
from synwatch.cli import main
from synwatch.errors import NumericError
from synwatch.model_io import load_model, save_model
from synwatch.pipeline import (MODEL_KINDS, PREDICTION_KINDS, ExperimentConfig,
                               default_train_cfg, fit_model, read_report)
from synwatch.regressors import GridSpec
from synwatch.traffic import IntervalSeries, read_series, write_series


def _gen(tmp_path, name="s.csv", intervals=240, rate=50.0, fraction=0.2, seed=7):
    path = tmp_path / name
    code = main(["generate", "--intervals", str(intervals), "--rate", str(rate),
                 "--attack-fraction", str(fraction), "--multiplier", "10",
                 "--burst", "6", "--seed", str(seed), "--out", str(path)])
    assert code == 0
    return path


def _strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(("train_seconds=", "infer_seconds=")))


# --------------------------------------------------------------------------
# exit codes


def test_unknown_flag_exits_one(tmp_path, capsys):
    code = main(["generate", "--bogus", "1"])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_missing_input_file_exits_two(tmp_path):
    code = main(["frame", "--series", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "f.csv")])
    assert code == 2


def test_bad_config_exits_two(tmp_path):
    code = main(["generate", "--intervals", "10", "--rate", "-3",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_grid_with_lgr_reg_exits_two(tmp_path):
    series = _gen(tmp_path)
    code = main(["predict", "--model", "lgr_reg", "--series", str(series), "--grid",
                 "--report", str(tmp_path / "r.txt"), "--out", str(tmp_path / "p.csv")])
    assert code == 2


# case: (the role of the malformed file, its bytes, the line at fault)
@pytest.mark.parametrize("role, data, line", [
    ("series", b"interval_seconds=10,origin_s=0\n0,5,0\n\n1,99999999999999999999999,0\n2,5,1\n", 4),
    ("series", b"interval_seconds=10,origin_s=99999999999999999999999\n0,5,0\n1,9,1\n", 1),
    ("series", b"interval_seconds=10,origin_s=0\n0,5,0\n1,+5,1\n", 3),
    ("log", b"0,src,host\n99999999999999999999999,src,host\n", 2),
    ("series", b"interval_seconds=10,origin_s=0\n0,5,0\n1,5\xff,1\n", 3),
    ("model", b"model=kmeans version=1\nk=2\ncentroids_shape=2 \xff1\n", 3),
    ("report", b"model_kind=lgr\n\n[config]\nseed=4\xff2\n", 4),
], ids=["count", "origin_s", "plus_count", "log_timestamp", "series_utf8", "model_utf8",
        "report_utf8"])
def test_series_value_beyond_int64_exits_two(tmp_path, capsys, role, data, line):
    """A value beyond int64, a non-digit integer or invalid UTF-8 in any file
    the CLI reads is a parse error at its line: exit 2, no output file."""
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    series = bad if role == "series" else _gen(tmp_path)
    out = tmp_path / "out"
    argv = {"series": ["evaluate", "--model", "kmeans", "--series", str(series),
                       "--report", str(out)],
            "log": ["ingest", "--log", str(bad), "--out", str(out)],
            "model": ["evaluate", "--model", "kmeans", "--series", str(series),
                      "--model-file", str(bad), "--report", str(out)],
            "report": ["report", str(bad)]}[role]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: line {line}: " in capsys.readouterr().err
    assert not out.exists()


# case: (the file the command reads, its bytes or None, extra argv, what the message names)
@pytest.mark.parametrize("command, data, argv, message", [
    ("predict", b"\n", [], "line 1: origin_s=9223372036854775000 plus 240 rows"),
    ("predict", b"\r\n", [], "line 1: origin_s=9223372036854775000 plus 240 rows"),
    ("ingest", b"0,a,h\n9000000000000000000,a,h\n", [], "span 900000000000001 intervals"),
    ("generate", None, ["--intervals", "10000000000000"], "n_intervals must be in"),
    ("generate", None, ["--rate", "nan"], "baseline_rate must be finite"),
    ("generate", None, ["--rate", "inf"], "baseline_rate must be finite"),
    ("generate", None, ["--multiplier", "nan"], "attack_multiplier must be finite"),
    ("generate", None, ["--rate", "1e18"], "baseline_rate * attack_multiplier must be at most"),
    ("generate", None, ["--seed", "-1"], "--seed must be non-negative, got -1"),
    ("ingest", b"0,a,h\n1000,a,h\n", ["--interval", "10000000000000000"],
     "interval_seconds=10000000000000000 is past the int64 limit"),
    ("generate", None, ["--burst", "100000000000000000000"],
     "burst_length must be in [1, 134217728], got 100000000000000000000"),
    ("inject", None, ["--burst", "100000000000000000000"],
     "burst_length must be in [1, 134217728], got 100000000000000000000"),
], ids=["times_overflow_array_path", "times_overflow_crlf", "log_span", "intervals", "rate_nan",
        "rate_inf", "multiplier_nan", "attack_rate_past_poisson", "seed_negative",
        "interval_past_int64", "generate_burst_past_int64", "inject_burst_past_int64"])
def test_refusals_exit_two_before_allocating(tmp_path, capsys, command, data, argv, message):
    """A series whose times pass int64, a span beyond MAX_INTERVALS, a
    non-finite rate, an attack rate past numpy's Poisson limit, a negative
    seed, an interval whose milliseconds pass int64 and a burst past
    MAX_INTERVALS each exit 2 naming the header line, the span or the field."""
    out = tmp_path / "out"
    if command == "predict":
        lines = _gen(tmp_path).read_bytes().splitlines(keepends=True)
        series = tmp_path / "far.csv"
        series.write_bytes((b"interval_seconds=10,origin_s=9223372036854775000\n"
                            + b"".join(lines[1:])).replace(b"\n", data))
        argv = ["predict", "--model", "krr", "--series", str(series),
                "--report", str(tmp_path / "r.txt"), "--out", str(out)]
    elif command == "ingest":
        log = tmp_path / "far.log"
        log.write_bytes(data)
        argv = ["ingest", "--log", str(log), *argv, "--out", str(out)]
    elif command == "inject":
        argv = ["inject", "--series", str(_gen(tmp_path)), *argv, "--out", str(out)]
    else:
        flags = {"--intervals": "600", "--rate": "50", "--multiplier": "10"}
        flags.update(zip(argv[::2], argv[1::2]))
        argv = ["generate", *[x for kv in flags.items() for x in kv], "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# case: (argv, the refusing call, its training rows). A grid run is refused
# for its refit, whose rows outnumber any fold's, before its grid.
@pytest.mark.parametrize("argv, fit, rows", [
    (["evaluate", "--model", "krr"], "krr_fit", 192),
    (["evaluate", "--model", "svr"], "svr_fit", 192),
    (["train", "--model", "krr", "--grid"], "krr_fit", 240),
    (["predict", "--model", "svr", "--grid"], "svr_fit", 192),
], ids=["evaluate_krr", "evaluate_svr", "train_krr_grid", "predict_svr_grid"])
def test_kernel_fits_past_the_row_bound_exit_two_before_allocating(tmp_path, capsys,
                                                                   monkeypatch, argv, fit,
                                                                   rows):
    """A kernel fit on more than MAX_KERNEL_ROWS training rows exits 2 naming
    the rows and the kernel's bytes, and no kernel is built."""
    series = _gen(tmp_path)  # 240 intervals: evaluate's head holds 192, train fits all 240
    monkeypatch.setattr(regressors, "MAX_KERNEL_ROWS", 100)
    monkeypatch.setattr(regressors, "rbf_matrix", lambda *args: pytest.fail("kernel built"))
    out = tmp_path / "out"
    outputs = {"evaluate": ["--report", str(out)], "train": ["--out", str(out)],
               "predict": ["--report", str(out), "--out", str(tmp_path / "p.csv")]}
    capsys.readouterr()
    assert main([*argv, "--series", str(series), *outputs[argv[0]]]) == 2
    assert (f"error: {fit} on {rows} training rows needs a {rows}x{rows} kernel of "
            f"{rows * rows * 8:,} bytes; at most MAX_KERNEL_ROWS=100 rows are fitted"
            ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["krr", "svr"])
def test_grid_whose_refit_passes_the_row_bound_exits_two_before_any_fit(
        tmp_path, capsys, monkeypatch, periodic_series, kind):
    """600 training rows past a bound of 500 are refused with the refit's
    message, although every fold's 400 rows fit under it: no fold fit runs."""
    series, out = tmp_path / "p.csv", tmp_path / "model.txt"
    write_series(periodic_series, series)
    monkeypatch.setattr(regressors, "MAX_KERNEL_ROWS", 500)
    calls = []
    for name in ("krr_fit", "svr_fit"):
        fit = getattr(regressors, name)
        monkeypatch.setattr(regressors, name, lambda *args, fit=fit, name=name, **kwargs:
                            calls.append(name) or fit(*args, **kwargs))
    capsys.readouterr()
    assert main(["train", "--model", kind, "--grid", "--series", str(series),
                 "--out", str(out)]) == 2
    assert (f"error: {kind}_fit on 600 training rows needs a 600x600 kernel of 2,880,000 "
            f"bytes; at most MAX_KERNEL_ROWS=500 rows are fitted") in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("kind", ["lgr", "ann", "kmeans+lgr"])
def test_detection_split_without_test_rows_exits_two_before_any_fit(tmp_path, capsys,
                                                                    monkeypatch, kind):
    """Classes of at most 4 rows send every row to training: the run is refused
    naming the split and both class sizes, before LGR's 5,000 epochs."""
    series, report = tmp_path / "four.csv", tmp_path / "r.txt"
    assert main(["generate", "--intervals", "4", "--rate", "50", "--attack-fraction", "0.5",
                 "--burst", "1", "--out", str(series)]) == 0
    calls = []
    for name in ("lgr_fit", "mlp_fit"):
        fit = getattr(classifiers, name)
        monkeypatch.setattr(classifiers, name, lambda *args, fit=fit, name=name, **kwargs:
                            calls.append(name) or fit(*args, **kwargs))
    capsys.readouterr()
    assert main(["evaluate", "--model", kind, "--series", str(series),
                 "--report", str(report)]) == 2
    assert ("error: the 0.8 detection split leaves no test rows: it sends all 2 class-0 "
            "and 2 class-1 rows to training") in capsys.readouterr().err
    assert calls == [] and not report.exists()


@pytest.mark.parametrize("kind", ["krr", "svr"])
def test_scoring_a_kernel_model_past_the_entry_bound_works_in_row_blocks(
        tmp_path, monkeypatch, kind):
    """evaluate --model-file scores every row: 240 rows against the model's
    240 training rows, with distances._BLOCK_BYTES room for 100 rows' kernel
    arrays, are scored in blocks of 100, 100 and 40 rows into the same
    predictions, bit for bit, and the same report as one kernel."""
    series = _gen(tmp_path)
    model_path = tmp_path / "model.txt"
    assert main(["train", "--model", kind, "--series", str(series),
                 "--out", str(model_path)]) == 0
    reports, outputs, blocks = [], [], regressors._distance_blocks
    predict = getattr(regressors, f"{kind}_predict")
    monkeypatch.setattr(regressors, f"{kind}_predict",
                        lambda *args: outputs.append(predict(*args)) or outputs[-1])
    row_bytes = 240 * (distances._SQ_ARRAYS + 1) * 8  # one row's kernel arrays
    for rows in (240, 100):
        built = []
        def counting(A, B, held=0):
            for start, d2 in blocks(A, B, held):
                built.append(len(d2))
                yield start, d2
        monkeypatch.setattr(distances, "_BLOCK_BYTES", rows * row_bytes)
        monkeypatch.setattr(regressors, "_distance_blocks", counting)
        out = tmp_path / f"r{rows}.txt"
        assert main(["evaluate", "--model", kind, "--series", str(series),
                     "--model-file", str(model_path), "--report", str(out)]) == 0
        assert built == ([240] if rows == 240 else [100, 100, 40])
        reports.append([line for line in out.read_text().splitlines()
                        if "seconds" not in line])
    assert reports[0] == reports[1]
    assert len(outputs) == 2 and outputs[0].tobytes() == outputs[1].tobytes()


# --------------------------------------------------------------------------
# generate / ingest / inject / frame / elbow


def test_generate_writes_series(tmp_path):
    path = _gen(tmp_path)
    series = read_series(path)
    assert len(series) == 240
    assert series.labels.sum() == 48


def test_generate_deterministic_bytes(tmp_path):
    a = _gen(tmp_path, "a.csv")
    b = _gen(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_ingest_path(tmp_path):
    log = tmp_path / "packets.log"
    log.write_text("# capture\n" +
                   "\n".join(f"{t * 1000},src,host" for t in range(30)) + "\n")
    out = tmp_path / "s.csv"
    assert main(["ingest", "--log", str(log), "--interval", "10",
                 "--dst", "host", "--out", str(out)]) == 0
    series = read_series(out)
    assert series.counts.tolist() == [10, 10, 10]


def test_inject_on_clean_series(tmp_path):
    log = tmp_path / "packets.log"
    log.write_text("\n".join(f"{t * 1000},src,host" for t in range(1200)) + "\n")
    clean = tmp_path / "clean.csv"
    main(["ingest", "--log", str(log), "--out", str(clean)])
    out = tmp_path / "attacked.csv"
    assert main(["inject", "--series", str(clean), "--attack-fraction", "0.25",
                 "--multiplier", "10", "--burst", "5", "--seed", "3",
                 "--out", str(out)]) == 0
    series = read_series(out)
    assert series.labels.sum() == 30


def test_frame_counts_lines(tmp_path):
    series = _gen(tmp_path, intervals=30, fraction=0.2, seed=1)
    out = tmp_path / "frames.csv"
    assert main(["frame", "--series", str(series), "--sigma", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert len(lines[0].split(",")) == 14  # 12 counts + sigma + label


def test_elbow_output(tmp_path, capsys):
    series = _gen(tmp_path)
    out = tmp_path / "elbow.csv"
    assert main(["elbow", "--series", str(series), "--kmax", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[-1] == "chosen=2"
    assert "chosen k = 2" in capsys.readouterr().out


# --------------------------------------------------------------------------
# evaluate / predict / train


def test_evaluate_semi_supervised_report(tmp_path):
    series = _gen(tmp_path)
    report_path = tmp_path / "r.txt"
    assert main(["evaluate", "--model", "kmeans+lgr", "--series", str(series),
                 "--report", str(report_path)]) == 0
    text = report_path.read_text()
    assert "accuracy_pct=100.000" in text
    assert "[config]" in text


def test_evaluate_deterministic_modulo_timing(tmp_path):
    series = _gen(tmp_path)
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    main(["evaluate", "--model", "lgr", "--series", str(series), "--report", str(r1)])
    main(["evaluate", "--model", "lgr", "--series", str(series), "--report", str(r2)])
    assert _strip_timing(r1.read_text()) == _strip_timing(r2.read_text())


def test_predict_writes_report_and_series(tmp_path, periodic_series):
    series_path = tmp_path / "p.csv"
    write_series(periodic_series, series_path)
    report_path, pred_path = tmp_path / "r.txt", tmp_path / "pred.csv"
    assert main(["predict", "--model", "lgr_reg", "--series", str(series_path),
                 "--report", str(report_path), "--out", str(pred_path)]) == 0
    report = read_report(report_path)
    assert float(report["r2"]) > 0.9
    lines = pred_path.read_text().splitlines()
    assert len(lines) == 120  # last 20% of 600 intervals
    assert all(len(line.split(",")) == 4 for line in lines)


@pytest.mark.parametrize("kind", PREDICTION_KINDS)
def test_predict_over_an_attack_free_tail_omits_r2(tmp_path, capsys, kind):
    # seed 1 at attack fraction 0.01 puts the only burst at intervals 308-313, so
    # the forecast tail is all benign: r2 has no baseline, accuracy and rmse are defined
    series = tmp_path / "s.csv"
    assert main(["generate", "--intervals", "600", "--rate", "50", "--attack-fraction", "0.01",
                 "--seed", "1", "--out", str(series)]) == 0
    assert read_series(series).labels[480:].max() == 0
    report_path, pred_path = tmp_path / "r.txt", tmp_path / "pred.csv"
    capsys.readouterr()
    assert main(["predict", "--model", kind, "--series", str(series),
                 "--report", str(report_path), "--out", str(pred_path)]) == 0
    assert " r2=- rmse=" in capsys.readouterr().out
    assert len(pred_path.read_text().splitlines()) == 120
    report = read_report(report_path)
    assert "r2" not in report and "rmse" in report


def test_krr_report_echoes_no_training_settings(tmp_path, periodic_series):
    series, report = tmp_path / "p.csv", tmp_path / "r.txt"
    write_series(periodic_series, series)
    assert main(["predict", "--model", "krr", "--series", str(series),
                 "--report", str(report), "--out", str(tmp_path / "p.out")]) == 0
    assert [k for k in read_report(report) if k.startswith("config.")] == [
        "config.model_kind", "config.split_ratio", "config.seed",
        "config.grid", "config.chosen_gamma", "config.chosen_lam"]


def test_kmeans_report_echoes_training_settings_but_no_smote_k(tmp_path):
    series, report = _gen(tmp_path), tmp_path / "r.txt"
    assert main(["evaluate", "--model", "kmeans", "--series", str(series),
                 "--report", str(report)]) == 0
    assert {k: v for k, v in read_report(report).items() if k.startswith("config.")} == {
        "config.model_kind": "kmeans", "config.seed": "42", "config.max_epochs": "200",
        "config.train_seed": "42", "config.grid": "no"}


def test_predict_deterministic_bytes(tmp_path, periodic_series):
    series_path = tmp_path / "p.csv"
    write_series(periodic_series, series_path)
    outs = []
    for tag in ("a", "b"):
        report_path, pred_path = tmp_path / f"r{tag}.txt", tmp_path / f"p{tag}.csv"
        main(["predict", "--model", "krr", "--series", str(series_path),
              "--report", str(report_path), "--out", str(pred_path)])
        outs.append((pred_path.read_bytes(), _strip_timing(report_path.read_text())))
    assert outs[0] == outs[1]


def test_train_then_evaluate_model_file(tmp_path):
    series = _gen(tmp_path)
    model_path = tmp_path / "model.txt"
    assert main(["train", "--model", "lgr", "--series", str(series), "--seed", "5",
                 "--out", str(model_path)]) == 0
    report_path = tmp_path / "r.txt"
    assert main(["evaluate", "--model", "lgr", "--series", str(series), "--seed", "5",
                 "--model-file", str(model_path), "--report", str(report_path)]) == 0
    report = read_report(report_path)
    assert float(report["accuracy_pct"]) >= 99.0
    total = sum(int(report[k]) for k in ("tp", "tn", "fp", "fn"))
    assert total == 240  # model files evaluate over every row
    # the file cannot say whether a grid chose its parameters, so no grid= line
    assert {k: v for k, v in report.items() if k.startswith("config.")} == {
        "config.model_kind": "lgr", "config.seed": "5", "config.model_file": str(model_path)}


def test_train_prints_each_warning_on_one_line(tmp_path, capsys):
    series = _gen(tmp_path)
    capsys.readouterr()
    assert main(["train", "--model", "lgr", "--series", str(series),
                 "--out", str(tmp_path / "m.txt")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: lgr_fit hit its cap of 5000 epochs ")
    assert ".py:" not in lines[0]


def test_unconverged_svr_refit_names_its_grid_cell(tmp_path, capsys, monkeypatch):
    # a cap of zero steps: every fit stops at its start, and the grid keeps its first cell
    monkeypatch.setattr(regressors, "SMO_ITER_FACTOR", 0)
    series = _gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "m.txt"
    assert main(["train", "--model", "svr", "--grid", "--series", str(series),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "warning: grid_search scored 72 of 72 fold fits that hit the SMO step cap, "
        "the first at C=0.1, epsilon=0.01, gamma=0.01\n"
        "numeric error: SVR failed to converge (KKT violation 9.800e-01) "
        "at C=0.1, epsilon=0.01, gamma=0.01\n")
    assert not out.exists()
    # the same warning, once, from the library call the command makes
    cfg = ExperimentConfig(model_kind="svr", grid=GridSpec())
    with pytest.warns(RuntimeWarning) as record, pytest.raises(NumericError):
        fit_model(read_series(series), cfg)
    assert [str(w.message) for w in record] == [
        "grid_search scored 72 of 72 fold fits that hit the SMO step cap, "
        "the first at C=0.1, epsilon=0.01, gamma=0.01"]


def test_svr_grid_trains_and_predicts_on_the_attack_series(tmp_path):
    series = _gen(tmp_path)
    assert main(["train", "--model", "svr", "--grid", "--series", str(series),
                 "--out", str(tmp_path / "m.txt")]) == 0
    assert load_model(tmp_path / "m.txt").converged
    assert main(["predict", "--model", "svr", "--grid", "--series", str(series),
                 "--report", str(tmp_path / "r.txt"), "--out", str(tmp_path / "p.csv")]) == 0


def test_train_kmeans_model_file(tmp_path):
    series = _gen(tmp_path)
    model_path = tmp_path / "km.txt"
    assert main(["train", "--model", "kmeans", "--series", str(series),
                 "--out", str(model_path)]) == 0
    assert model_path.read_text().startswith("model=kmeans version=1")


def test_kmeans_file_without_label_map_scores_as_the_trained_file(tmp_path):
    # a bare kmeans_fit model holds no label_map line; scoring maps its clusters
    # as train does before it saves
    series = _gen(tmp_path)
    trained, bare = tmp_path / "trained.txt", tmp_path / "bare.txt"
    assert main(["train", "--model", "kmeans", "--series", str(series),
                 "--out", str(trained)]) == 0
    X = read_series(series).counts.astype(np.float64).reshape(-1, 1)
    save_model(kmeans_fit(X, 2, default_train_cfg("kmeans", 42)), bare)
    assert "label_map" not in bare.read_text()
    # cluster 0 is the burst cluster, so scoring raw cluster ids would invert every label
    assert load_model(trained).label_map == {0: 1, 1: 0}
    reports = []
    for model_path in (trained, bare):
        report_path = tmp_path / f"{model_path.stem}-report.txt"
        assert main(["evaluate", "--model", "kmeans", "--series", str(series),
                     "--model-file", str(model_path), "--report", str(report_path)]) == 0
        report = read_report(report_path)
        del report["config.model_file"], report["infer_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_train_grid_only_for_kernel_models(tmp_path):
    series = _gen(tmp_path)
    assert main(["train", "--model", "lgr", "--series", str(series), "--grid",
                 "--out", str(tmp_path / "m.txt")]) == 2


# model file family and rows scored per kind, on the 240-interval series
# (the 600-interval periodic series for prediction kinds)
_FILE_OF_KIND = {
    "lgr": ("lgr", 240), "ann": ("mlp", 240), "ann_frames": ("mlp", 20),
    "ann_frames_sigma": ("mlp", 20), "kmeans": ("kmeans", 240), "kmeans+lgr": ("lgr", 240),
    "kmeans+ann": ("mlp", 240), "kmeans+ann_frames": ("mlp", 20),
    "kmeans+ann_frames_sigma": ("mlp", 20), "krr": ("krr", 600), "svr": ("svr", 600),
    "lgr_reg": ("lgr", 600),
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_then_evaluate_every_kind(tmp_path, periodic_series, kind):
    if kind in PREDICTION_KINDS:
        series = tmp_path / "p.csv"
        write_series(periodic_series, series)
    else:
        series = _gen(tmp_path)
    family, rows = _FILE_OF_KIND[kind]
    model_path, report_path = tmp_path / "model.txt", tmp_path / "r.txt"
    assert main(["train", "--model", kind, "--series", str(series),
                 "--out", str(model_path)]) == 0
    assert model_path.read_text().splitlines()[0] == f"model={family} version=1"
    assert main(["evaluate", "--model", kind, "--series", str(series),
                 "--model-file", str(model_path), "--report", str(report_path)]) == 0
    report = read_report(report_path)
    assert sum(int(report[k]) for k in ("tp", "tn", "fp", "fn")) == rows


def test_evaluate_model_file_of_another_family_exits_two(tmp_path, capsys):
    series = _gen(tmp_path)
    model_path = tmp_path / "ann.txt"
    assert main(["train", "--model", "ann", "--series", str(series),
                 "--out", str(model_path)]) == 0
    assert main(["evaluate", "--model", "lgr", "--series", str(series),
                 "--model-file", str(model_path), "--report", str(tmp_path / "r.txt")]) == 2
    assert "holds a mlp model" in capsys.readouterr().err


def test_width_mismatch_between_frame_kinds_exits_two(tmp_path, capsys):
    series = _gen(tmp_path)
    model_path = tmp_path / "frames.txt"
    assert main(["train", "--model", "ann_frames", "--series", str(series),
                 "--out", str(model_path)]) == 0
    assert main(["evaluate", "--model", "ann_frames_sigma", "--series", str(series),
                 "--model-file", str(model_path), "--report", str(tmp_path / "r.txt")]) == 2
    assert "model has 12 features, input has 13" in capsys.readouterr().err


# argv and the expected config line after "subcommand=<name> ", with {d} for the
# directory; SYN_SEED is 123 in these runs, so it shows wherever --seed is not given
_CONFIG_LINES = [
    (["generate", "--intervals", "60", "--rate", "20", "--out", "{d}/g.csv"],
     "intervals=60 rate=20.0 attack_fraction=0.2 multiplier=10.0 burst=6 seed=123 "
     "out={d}/g.csv"),
    (["ingest", "--log", "{d}/packets.log", "--out", "{d}/i.csv"],
     "log={d}/packets.log interval=10 dst=- out={d}/i.csv"),
    (["inject", "--series", "{d}/c.csv", "--burst", "3", "--out", "{d}/a.csv"],
     "series={d}/c.csv attack_fraction=0.2 multiplier=10.0 burst=3 seed=123 "
     "baseline_rate=1.666667 out={d}/a.csv"),
    (["frame", "--series", "{d}/s.csv", "--sigma", "--out", "{d}/f.csv"],
     "series={d}/s.csv sigma=True out={d}/f.csv"),
    (["elbow", "--series", "{d}/s.csv", "--kmax", "3", "--out", "{d}/e.csv"],
     "series={d}/s.csv kmax=3 seed=123 out={d}/e.csv"),
    (["train", "--model", "lgr", "--series", "{d}/s.csv", "--seed", "5", "--out", "{d}/m.txt"],
     "model=lgr series={d}/s.csv grid=False seed=5 out={d}/m.txt"),
    (["evaluate", "--model", "kmeans", "--series", "{d}/s.csv", "--report", "{d}/r.txt"],
     "model=kmeans series={d}/s.csv model_file=- seed=123 report={d}/r.txt"),
    (["predict", "--model", "lgr_reg", "--series", "{d}/s.csv", "--report", "{d}/r.txt",
      "--out", "{d}/p.csv"],
     "model=lgr_reg series={d}/s.csv grid=False seed=123 report={d}/r.txt out={d}/p.csv"),
]


@pytest.mark.parametrize("argv, expected", _CONFIG_LINES, ids=[c[0][0] for c in _CONFIG_LINES])
def test_config_line_echoes_every_argument(tmp_path, capsys, monkeypatch, argv, expected):
    _gen(tmp_path)
    (tmp_path / "packets.log").write_text("0,src,host\n12000,src,host\n")
    write_series(IntervalSeries(np.array([1, 2, 2] * 10), np.zeros(30, dtype=np.int64)),
                 tmp_path / "c.csv")  # mean 5/3
    capsys.readouterr()
    monkeypatch.setenv("SYN_SEED", "123")
    assert main([arg.format(d=tmp_path) for arg in argv]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("config:")]
    assert lines == [f"config: subcommand={argv[0]} " + expected.format(d=tmp_path)]


def test_bad_seed_env_fails_only_commands_with_a_seed(tmp_path, monkeypatch, capsys):
    series = _gen(tmp_path)
    report = tmp_path / "r.txt"
    main(["evaluate", "--model", "kmeans", "--series", str(series), "--report", str(report)])
    (tmp_path / "packets.log").write_text("0,src,host\n")
    for env, message in [("abc", "SYN_SEED must be an integer, got 'abc'"),
                         ("-4", "SYN_SEED must be non-negative, got -4")]:
        monkeypatch.setenv("SYN_SEED", env)
        capsys.readouterr()
        assert main(["elbow", "--series", str(series), "--kmax", "2",
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert message in capsys.readouterr().err
    assert main(["ingest", "--log", str(tmp_path / "packets.log"),
                 "--out", str(tmp_path / "i.csv")]) == 0
    assert main(["frame", "--series", str(series), "--out", str(tmp_path / "f.csv")]) == 0
    assert main(["report", str(report)]) == 0


def test_seed_env_override(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("SYN_SEED", "123")
    main(["generate", "--intervals", "60", "--rate", "20", "--attack-fraction", "0.1",
          "--out", str(out_env)])
    monkeypatch.delenv("SYN_SEED")
    main(["generate", "--intervals", "60", "--rate", "20", "--attack-fraction", "0.1",
          "--seed", "123", "--out", str(out_flag)])
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_report_pretty_printer(tmp_path, capsys):
    series = _gen(tmp_path)
    r = tmp_path / "r.txt"
    main(["evaluate", "--model", "kmeans", "--series", str(series), "--report", str(r)])
    capsys.readouterr()
    assert main(["report", str(r)]) == 0
    out = capsys.readouterr().out
    assert "model_kind" in out and "kmeans" in out



def test_report_with_a_repeated_key_exits_two(tmp_path, capsys):
    r = tmp_path / "r.txt"
    r.write_text("model_kind=lgr\naccuracy_pct=99.000\naccuracy_pct=12.000\n")
    assert main(["report", str(r)]) == 2
    captured = capsys.readouterr()
    assert "12.000" not in captured.out
    assert "line 3: key 'accuracy_pct' repeats line 2" in captured.err
