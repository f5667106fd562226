import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mutations import check_reader, damaged

from synwatch import pipeline
from synwatch.classifiers import KMeansModel, LgrModel, MlpModel
from synwatch.cli import main
from synwatch.errors import FLOAT, NumericError, ParseError
from synwatch.model_io import load_model, save_model
from synwatch.regressors import KrrModel, SvrModel, krr_predict, rbf_matrix
from synwatch.scaling import Scaler
from synwatch.traffic import write_series

RNG = np.random.default_rng(99)


def _scaler(d):
    return Scaler(mean=RNG.normal(size=d), std=np.abs(RNG.normal(size=d)) + 0.5)


def test_lgr_round_trip_exact(tmp_path):
    model = LgrModel(weights=RNG.normal(size=4), bias=float(RNG.normal()),
                     scaler=_scaler(4))
    path = tmp_path / "m.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert np.array_equal(back.scaler.mean, model.scaler.mean)
    assert np.array_equal(back.scaler.std, model.scaler.std)


def test_mlp_round_trip_exact(tmp_path):
    model = MlpModel(W1=RNG.normal(size=(6, 13)), b1=RNG.normal(size=6),
                     W2=RNG.normal(size=(1, 6)), b2=float(RNG.normal()),
                     scaler=_scaler(13))
    path = tmp_path / "m.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.W1, model.W1)
    assert np.array_equal(back.b1, model.b1)
    assert np.array_equal(back.W2, model.W2)
    assert back.b2 == model.b2


def test_kmeans_round_trip_with_and_without_map(tmp_path):
    bare = KMeansModel(centroids=RNG.normal(size=(2, 3)), k=2, wcss=float(RNG.random()))
    mapped = KMeansModel(centroids=bare.centroids, k=2, wcss=bare.wcss,
                         label_map={0: 1, 1: 0})
    for i, model in enumerate((bare, mapped)):
        path = tmp_path / f"m{i}.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.centroids, model.centroids)
        assert back.k == 2
        assert back.wcss == model.wcss
        assert back.label_map == model.label_map


def test_krr_round_trip_with_scaler_bundle(tmp_path):
    model = KrrModel(alphas=RNG.normal(size=5), train_inputs=RNG.normal(size=(5, 2)),
                     lam=0.25, gamma=1.5, scaler=_scaler(2))
    path = tmp_path / "m.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.alphas, model.alphas)
    assert np.array_equal(back.train_inputs, model.train_inputs)
    assert back.lam == 0.25 and back.gamma == 1.5
    assert np.array_equal(back.scaler.mean, model.scaler.mean)
    assert np.array_equal(back.scaler.std, model.scaler.std)


def test_svr_round_trip_exact(tmp_path):
    model = SvrModel(dual_deltas=RNG.normal(size=6), bias=float(RNG.normal()),
                     train_inputs=RNG.normal(size=(6, 2)), C=10.0, epsilon=0.01,
                     gamma=0.3, converged=True, violation=4.5e-4, objective=-1.25)
    path = tmp_path / "m.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.dual_deltas, model.dual_deltas)
    assert back.bias == model.bias
    assert back.converged is True
    assert back.violation == model.violation
    assert back.objective == model.objective


def test_krr_file_without_scaler_predicts_on_inputs_as_given(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("model=krr version=1\nlambda=0.5\ngamma=2\nalphas=1 -0.5\n"
                    "train_inputs_shape=2 2\ntrain_inputs=0 1 1 0\n")
    back = load_model(path)
    assert back.scaler is None
    X = np.array([[0.25, 0.5], [3.0, -1.0]])
    expected = rbf_matrix(X, np.array([[0.0, 1.0], [1.0, 0.0]]), 2.0) @ np.array([1.0, -0.5])
    assert np.array_equal(krr_predict(back, X), expected)


# --------------------------------------------------------------------------
# exact file text: the bytes train writes and evaluate --model-file reads


def test_lgr_file_text(tmp_path):
    model = LgrModel(weights=np.array([0.5, -1.25]), bias=0.25,
                     scaler=Scaler(mean=np.array([50.0, 2.5]), std=np.array([10.0, 0.5])))
    path = tmp_path / "m.txt"
    save_model(model, path)
    assert path.read_text() == ("model=lgr version=1\n"
                                "weights=0.5 -1.25\n"
                                "bias=0.25\n"
                                "scaler_mean=50 2.5\n"
                                "scaler_std=10 0.5\n")


def test_mlp_file_text(tmp_path):
    model = MlpModel(W1=np.array([[0.5, -1.0], [2.0, 0.25]]), b1=np.array([0.125, -0.5]),
                     W2=np.array([[1.5, -2.0]]), b2=0.75,
                     scaler=Scaler(mean=np.array([50.0, 2.5]), std=np.array([10.0, 0.5])))
    path = tmp_path / "m.txt"
    save_model(model, path)
    assert path.read_text() == ("model=mlp version=1\n"
                                "w1_shape=2 2\n"
                                "w1=0.5 -1 2 0.25\n"
                                "b1=0.125 -0.5\n"
                                "w2_shape=1 2\n"
                                "w2=1.5 -2\n"
                                "b2=0.75\n"
                                "scaler_mean=50 2.5\n"
                                "scaler_std=10 0.5\n")


def test_kmeans_file_text_with_and_without_label_map(tmp_path):
    bare = KMeansModel(centroids=np.array([[50.0], [512.5]]), k=2, wcss=1234.5)
    head = ("model=kmeans version=1\n"
            "k=2\n"
            "centroids_shape=2 1\n"
            "centroids=50 512.5\n"
            "wcss=1234.5\n")
    path = tmp_path / "bare.txt"
    save_model(bare, path)
    assert path.read_text() == head
    save_model(KMeansModel(centroids=bare.centroids, k=2, wcss=bare.wcss,
                           label_map={0: 1, 1: 0}), path)
    assert path.read_text() == head + "label_map=1 0\n"


def test_krr_file_text_with_scaler(tmp_path):
    model = KrrModel(alphas=np.array([0.5, -0.25]),
                     train_inputs=np.array([[1.0, 2.0], [-1.0, 0.5]]), lam=0.125, gamma=2.0,
                     scaler=Scaler(mean=np.array([100.0, 20.0]), std=np.array([4.0, 8.0])))
    path = tmp_path / "m.txt"
    save_model(model, path)
    assert path.read_text() == ("model=krr version=1\n"
                                "lambda=0.125\n"
                                "gamma=2\n"
                                "alphas=0.5 -0.25\n"
                                "train_inputs_shape=2 2\n"
                                "train_inputs=1 2 -1 0.5\n"
                                "scaler_mean=100 20\n"
                                "scaler_std=4 8\n")


def test_svr_file_text_with_scaler(tmp_path):
    model = SvrModel(dual_deltas=np.array([1.0, -1.0]), bias=0.5,
                     train_inputs=np.array([[0.0, 1.0], [1.0, 0.0]]), C=10.0, epsilon=0.125,
                     gamma=0.5, converged=True, violation=2.0 ** -10, objective=-1.5,
                     scaler=Scaler(mean=np.array([3.0, 4.0]), std=np.array([1.0, 2.0])))
    path = tmp_path / "m.txt"
    save_model(model, path)
    assert path.read_text() == ("model=svr version=1\n"
                                "C=10\n"
                                "epsilon=0.125\n"
                                "gamma=0.5\n"
                                "dual_deltas=1 -1\n"
                                "bias=0.5\n"
                                "train_inputs_shape=2 2\n"
                                "train_inputs=0 1 1 0\n"
                                "converged=1\n"
                                "violation=0.0009765625\n"
                                "objective=-1.5\n"
                                "scaler_mean=3 4\n"
                                "scaler_std=1 2\n")


def test_header_line_is_versioned(tmp_path):
    model = LgrModel(weights=np.zeros(1), bias=0.0, scaler=_scaler(1))
    path = tmp_path / "m.txt"
    save_model(model, path)
    assert path.read_text().splitlines()[0] == "model=lgr version=1"


def test_save_rejects_non_finite_model_before_writing(tmp_path):
    W1 = np.ones((2, 1))
    W1[1, 0] = np.nan
    model = MlpModel(W1=W1, b1=np.zeros(2), W2=np.ones((1, 2)), b2=0.0, scaler=_scaler(1))
    path = tmp_path / "m.txt"
    with pytest.raises(NumericError, match="^non-finite value in array 'w1'$"):
        save_model(model, path)
    assert not path.exists()


def test_train_exits_three_without_writing_a_non_finite_model(tmp_path, capsys,
                                                              monkeypatch, small_series):
    nan_model = MlpModel(W1=np.full((2, 1), np.nan), b1=np.zeros(2), W2=np.ones((1, 2)),
                         b2=0.0, scaler=_scaler(1))
    monkeypatch.setattr(pipeline, "fit_model", lambda series, cfg: (nan_model, None))
    series, out = tmp_path / "s.csv", tmp_path / "m.txt"
    write_series(small_series, series)
    capsys.readouterr()
    assert main(["train", "--model", "ann", "--series", str(series), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numeric error: non-finite value in array 'w1'\n"
    assert not out.exists()


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(ParseError):
        load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("model=lgr version=9\nweights=1\nbias=0\n")
    with pytest.raises(ParseError):
        load_model(path)


# --------------------------------------------------------------------------
# malformed files: ParseError with a line number, exit code 2 in the CLI

_LGR = LgrModel(weights=np.array([0.5]), bias=-1.0,
                scaler=Scaler(mean=np.array([50.0]), std=np.array([10.0])))
_MLP = MlpModel(W1=np.linspace(-1.0, 1.0, 6).reshape(6, 1), b1=np.zeros(6),
                W2=np.ones((1, 6)), b2=0.0,
                scaler=Scaler(mean=np.array([50.0]), std=np.array([10.0])))
_KMEANS = KMeansModel(centroids=np.array([[50.0], [500.0]]), k=2, wcss=1.0,
                      label_map={0: 0, 1: 1})
_FORECAST_SCALER = Scaler(mean=np.array([1200.0, 100.0]), std=np.array([700.0, 150.0]))
_KRR = KrrModel(alphas=np.array([0.5, -0.5, 1.0]), train_inputs=np.eye(3)[:, :2],
                lam=1.0, gamma=0.5, scaler=_FORECAST_SCALER)
_SVR = SvrModel(dual_deltas=np.array([0.5, -0.5, 0.0]), bias=0.25,
                train_inputs=np.eye(3)[:, :2], C=1.0, epsilon=0.1, gamma=0.5,
                scaler=_FORECAST_SCALER)


def _set(name, text):
    """Edit that replaces the values of array `name` by text."""
    return lambda lines: [f"{name}={text}" if ln.startswith(f"{name}=") else ln
                          for ln in lines]


def _drop_last(name):
    """Edit that removes the last value of array `name`."""
    return lambda lines: [ln.rsplit(" ", 1)[0] if ln.startswith(f"{name}=") else ln
                          for ln in lines]


# case: (model, evaluated as, edit of the saved lines, line number of the fault)
MALFORMED = {
    "empty_array": (_LGR, "lgr", _set("bias", ""), 3),
    "no_scaler": (_LGR, "lgr",
                  lambda lines: [ln for ln in lines if not ln.startswith("scaler_")], 1),
    "header_token": (_LGR, "lgr", lambda lines: [lines[0] + " stray"] + lines[1:], 1),
    "header_unknown_key": (_LGR, "lgr", lambda lines: [lines[0] + " seed=5"] + lines[1:], 1),
    "shape_mismatch": (_MLP, "ann", _set("w1_shape", "6 2"), 3),
    "k_not_centroid_rows": (_KMEANS, "kmeans", _set("k", "3"), 2),
    "label_map_count": (_KMEANS, "kmeans", _set("label_map", "1"), 6),
    "label_map_value": (_KMEANS, "kmeans", _set("label_map", "1 7"), 6),
    "krr_alphas_count": (_KRR, "krr", _drop_last("alphas"), 4),
    "svr_deltas_count": (_SVR, "svr", _drop_last("dual_deltas"), 5),
    "mlp_b1_count": (_MLP, "ann", _drop_last("b1"), 4),
    "mlp_w2_shape": (_MLP, "ann", _set("w2_shape", "6 1"), 6),
    "lgr_weights_width": (_LGR, "lgr", _set("weights", "0.5 0.5"), 4),
    "krr_scaler_width": (_KRR, "krr", _drop_last("scaler_std"), 8),
    "lgr_bias_two_values": (_LGR, "lgr", _set("bias", "-1 99"), 3),
    "mlp_b2_two_values": (_MLP, "ann", _set("b2", "0 1"), 7),
    "kmeans_wcss_two_values": (_KMEANS, "kmeans", _set("wcss", "1 2"), 5),
    "krr_lambda_two_values": (_KRR, "krr", _set("lambda", "1 1"), 2),
    "svr_gamma_two_values": (_SVR, "svr", _set("gamma", "0.5 0.5"), 4),
    "svr_converged_value": (_SVR, "svr", _set("converged", "0.5"), 9),
    "non_finite_value": (_LGR, "lgr", _set("weights", "nan"), 2),
    "repeated_array": (_LGR, "lgr", lambda lines: lines + ["bias=5"], 6),
    "array_not_in_layout": (_KMEANS, "kmeans", lambda lines: lines + ["scaler_mean=1"], 7),
    "non_ascii_digits": (_KMEANS, "kmeans", _set("centroids", "5_0 \u0665\u0660\u0660"), 4),
}


def _write_malformed(tmp_path, case):
    model, kind, edit, line_no = MALFORMED[case]
    path = tmp_path / f"{case}.txt"
    save_model(model, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return kind, path, line_no


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_rejects_malformed_file_with_line_number(tmp_path, case):
    _, path, line_no = _write_malformed(tmp_path, case)
    with pytest.raises(ParseError) as info:
        load_model(path)
    assert info.value.line_no == line_no


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_evaluate_malformed_model_file_exits_two(tmp_path, capsys, small_series, case):
    kind, path, line_no = _write_malformed(tmp_path, case)
    series = tmp_path / "s.csv"
    write_series(small_series, series)
    assert main(["evaluate", "--model", kind, "--series", str(series),
                 "--model-file", str(path), "--report", str(tmp_path / "r.txt")]) == 2
    assert f"line {line_no}:" in capsys.readouterr().err


def test_evaluate_three_cluster_model_file_maps_every_cluster(tmp_path, small_series):
    model = KMeansModel(centroids=np.array([[50.0], [300.0], [600.0]]), k=3, wcss=1.0,
                        label_map={0: 0, 1: 1, 2: 1})
    path, series, report = tmp_path / "km3.txt", tmp_path / "s.csv", tmp_path / "r.txt"
    save_model(model, path)
    write_series(small_series, series)
    assert main(["evaluate", "--model", "kmeans", "--series", str(series),
                 "--model-file", str(path), "--report", str(report)]) == 0
    counts = small_series.counts
    nearest = np.abs(counts[:, None] - np.array([50, 300, 600])[None, :]).argmin(axis=1)
    attack = nearest > 0
    text = report.read_text()
    assert f"tp={int((attack & (small_series.labels == 1)).sum())}\n" in text
    assert f"fn={int((attack & (small_series.labels == 0)).sum())}\n" in text  # inverted fn


def _saved(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m.txt")
        return (Path(tmp) / "m.txt").read_bytes()


def test_model_file_with_crlf_ends_loads(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(_saved(_SVR).replace(b"\n", b"\r\n"))
    assert _saved(load_model(path)) == _saved(_SVR)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.sampled_from([_LGR, _MLP, _KMEANS, _KRR, _SVR]).map(_saved).flatmap(damaged))
def test_damaged_model_file_loads_or_names_its_line(tmp_path, data):
    check_reader(load_model, tmp_path / "m.txt", data)


# numbers float() reads that a model file may not hold: `_` between digits,
# non-ASCII digits, a leading "+" or ".", and the names of non-finite values
@pytest.mark.parametrize("text", ["5_0", "\u0665\u0660", "\uff15", "+5", ".5", "-.5", "nan",
                                  "-inf", "Infinity", "1e5_0"])
def test_model_file_numbers_are_ascii_decimal(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(_saved(_KMEANS).decode().replace("centroids=50 500", f"centroids=50 {text}"),
                    encoding="utf-8")
    with pytest.raises(ParseError, match="^line 4: non-numeric value in array 'centroids'$"):
        load_model(path)


def test_space_inside_a_model_file_number_splits_it(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(_saved(_KMEANS).decode().replace("centroids=50 500", "centroids=50 5 00"),
                    encoding="utf-8")
    with pytest.raises(ParseError, match="^line 4: array 'centroids' has 3 values"):
        load_model(path)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_loads_back_from_a_model_file(value):
    assert re.fullmatch(FLOAT, format(value, ".17g"))
    model = LgrModel(weights=np.array([value]), bias=value,
                     scaler=Scaler(mean=np.array([value]), std=np.array([1.0])))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m.txt")
        back = load_model(Path(tmp) / "m.txt")
    assert back.weights.tobytes() == model.weights.tobytes()
    assert np.float64(back.bias).tobytes() == np.float64(value).tobytes()
