import numpy as np
import pytest

from synwatch.classifiers import KMeansModel, LgrModel, MlpModel
from synwatch.cli import main
from synwatch.errors import ParseError
from synwatch.model_io import load_model, save_model
from synwatch.regressors import KrrModel, SvrModel
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
    back, scaler = load_model(path)
    assert scaler is None
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
    back, _ = load_model(path)
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
        back, _ = load_model(path)
        assert np.array_equal(back.centroids, model.centroids)
        assert back.k == 2
        assert back.wcss == model.wcss
        assert back.label_map == model.label_map


def test_krr_round_trip_with_scaler_bundle(tmp_path):
    model = KrrModel(alphas=RNG.normal(size=5), train_inputs=RNG.normal(size=(5, 2)),
                     lam=0.25, gamma=1.5)
    bundle = _scaler(2)
    path = tmp_path / "m.txt"
    save_model(model, path, scaler=bundle)
    back, scaler = load_model(path)
    assert np.array_equal(back.alphas, model.alphas)
    assert np.array_equal(back.train_inputs, model.train_inputs)
    assert back.lam == 0.25 and back.gamma == 1.5
    assert np.array_equal(scaler.mean, bundle.mean)
    assert np.array_equal(scaler.std, bundle.std)


def test_svr_round_trip_exact(tmp_path):
    model = SvrModel(dual_deltas=RNG.normal(size=6), bias=float(RNG.normal()),
                     train_inputs=RNG.normal(size=(6, 2)), C=10.0, epsilon=0.01,
                     gamma=0.3, converged=True, violation=4.5e-4, objective=-1.25)
    path = tmp_path / "m.txt"
    save_model(model, path)
    back, _ = load_model(path)
    assert np.array_equal(back.dual_deltas, model.dual_deltas)
    assert back.bias == model.bias
    assert back.converged is True
    assert back.violation == model.violation
    assert back.objective == model.objective


def test_header_line_is_versioned(tmp_path):
    model = LgrModel(weights=np.zeros(1), bias=0.0, scaler=_scaler(1))
    path = tmp_path / "m.txt"
    save_model(model, path)
    assert path.read_text().splitlines()[0] == "model=lgr version=1"


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

# case: (model, evaluated as, edit of the saved lines, line number of the fault)
MALFORMED = {
    "empty_array": (_LGR, "lgr",
                    lambda lines: ["bias=" if ln.startswith("bias=") else ln for ln in lines], 3),
    "no_scaler": (_LGR, "lgr",
                  lambda lines: [ln for ln in lines if not ln.startswith("scaler_")], 1),
    "header_token": (_LGR, "lgr", lambda lines: [lines[0] + " stray"] + lines[1:], 1),
    "shape_mismatch": (_MLP, "ann",
                       lambda lines: ["w1_shape=6 2" if ln.startswith("w1_shape=") else ln
                                      for ln in lines], 3),
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
