"""Metric oracles: Pearson correlation, subsampling, confusion binning."""

import json
import math

import numpy as np
import pytest

from vstain import data_io as dio
from vstain import evaluation as ev
from vstain.errors import ConfigError, DataError, NumericError, ShapeError

rng = np.random.default_rng(55)


def two_pass_pearson(x, y):
    """Independent closed-form oracle."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx, my = x.mean(), y.mean()
    cov = ((x - mx) * (y - my)).sum()
    return cov / math.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------

def test_identity_and_negation():
    x = rng.normal(size=100)
    assert math.isclose(ev.pearson(x, x), 1.0, abs_tol=1e-12)
    assert math.isclose(ev.pearson(x, -x), -1.0, abs_tol=1e-12)


def test_small_sequence_matches_two_pass_oracle():
    x, y = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert math.isclose(ev.pearson(x, y), two_pass_pearson(x, y), rel_tol=1e-12)


def test_constant_input_is_an_error_not_nan():
    with pytest.raises(NumericError):
        ev.pearson([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


def test_affine_invariance_and_sign_flip():
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    base = ev.pearson(x, y)
    assert math.isclose(ev.pearson(2.5 * x + 7, y), base, abs_tol=1e-10)
    assert math.isclose(ev.pearson(-2.5 * x + 7, y), -base, abs_tol=1e-10)


def test_length_checks():
    with pytest.raises(ShapeError):
        ev.pearson([1.0], [2.0])
    with pytest.raises(ShapeError):
        ev.pearson([1.0, 2.0], [2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# sampled pearson
# ---------------------------------------------------------------------------

def test_perfect_prediction_mean_one_std_zero():
    imgs = [rng.random((20, 20)) * 255 for _ in range(3)]
    mean, std, values = ev.sampled_pearson(imgs, [i.copy() for i in imgs],
                                           sample_size=100, repetitions=30, seed=4)
    assert mean == 1.0
    assert std == 0.0
    assert len(values) == 30


def test_fixed_seed_reproducible():
    pred = [rng.random((30, 30)) * 255]
    truth = [rng.random((30, 30)) * 255]
    a = ev.sampled_pearson(pred, truth, 200, 30, seed=9)
    b = ev.sampled_pearson(pred, truth, 200, 30, seed=9)
    assert a == b


def test_full_population_single_repetition_equals_pearson_exactly():
    pred = [rng.random((17, 13)) * 255, rng.random((8, 9)) * 255]
    truth = [p * 0.5 + rng.normal(size=p.shape) * 10 for p in pred]
    total = sum(p.size for p in pred)
    mean, std, _ = ev.sampled_pearson(pred, truth, total, repetitions=1, seed=0)
    flat_p = np.concatenate([p.reshape(-1) for p in pred])
    flat_t = np.concatenate([t.reshape(-1) for t in truth])
    assert mean == ev.pearson(flat_p, flat_t)
    assert std == 0.0


def test_subsample_close_to_population_value():
    r = np.random.default_rng(6)
    truth = [r.random((100, 100)) * 255 for _ in range(4)]
    pred = [np.clip(t * 0.8 + r.normal(size=t.shape) * 20, 0, 255) for t in truth]
    mean, _, _ = ev.sampled_pearson(pred, truth, 10_000, repetitions=30, seed=1)
    full = ev.pearson(np.concatenate([p.reshape(-1) for p in pred]),
                      np.concatenate([t.reshape(-1) for t in truth]))
    assert abs(mean - full) <= 0.02


def test_oversized_sample_rejected():
    with pytest.raises(ShapeError):
        ev.sampled_pearson([np.zeros((2, 2))], [np.zeros((2, 2))], 5)


def test_empty_image_set_rejected():
    with pytest.raises(DataError):
        ev.sampled_pearson([], [], 1)


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------

def test_binning_rule():
    assert ev.value_bin(0) == 0
    assert ev.value_bin(25) == 0    # 25/255 = 0.098
    assert ev.value_bin(26) == 1    # 26/255 = 0.102
    assert ev.value_bin(255) == 9   # top bin closed
    assert ev.value_bin(127.5) == 5


def test_perfect_prediction_identity_matrix():
    vals = rng.integers(0, 256, size=500).astype(np.float64)
    res = ev.confusion(vals, vals)
    assert res.overall_accuracy == 1.0
    assert np.array_equal(res.counts, np.diag(res.counts.diagonal()))
    assert res.total == 500


def test_disjoint_bins_zero_accuracy():
    truth = np.full(40, 55.0)   # 55/255 = 0.216 -> bin 2
    pred = np.full(40, 80.0)    # 80/255 = 0.314 -> bin 3
    res = ev.confusion(pred, truth)
    assert res.overall_accuracy == 0.0
    assert res.per_bin_accuracy[2] == 0.0
    assert all(res.per_bin_accuracy[i] is None for i in range(10) if i != 2)
    assert res.counts[2, 3] == 40


def test_row_and_column_sums_are_histograms():
    truth = rng.integers(0, 256, size=1000)
    pred = rng.integers(0, 256, size=1000)
    res = ev.confusion(pred, truth)
    tb = np.minimum(truth / 255.0 * 10, 9).astype(int)
    pb = np.minimum(pred / 255.0 * 10, 9).astype(int)
    assert np.array_equal(res.counts.sum(axis=1), np.bincount(tb, minlength=10))
    assert np.array_equal(res.counts.sum(axis=0), np.bincount(pb, minlength=10))
    assert res.counts.sum() == 1000


def test_per_1000_normalisation():
    vals = rng.integers(0, 256, size=200).astype(np.float64)
    res = ev.confusion(vals, vals)
    assert math.isclose(res.per_1000.sum(), 1000.0, rel_tol=1e-9)


def test_out_of_range_rejected():
    with pytest.raises(DataError):
        ev.confusion(np.array([256.0]), np.array([0.0]))
    with pytest.raises(DataError):
        ev.confusion(np.array([0.0]), np.array([-1.0]))


@pytest.mark.parametrize("repetitions", [0, -1])
def test_evaluate_predictions_repetitions_below_one_is_config_error(tmp_path, repetitions):
    # perfect predictions: each truth saved under its prediction name
    manifest = dio.load_manifest(dio.generate_dataset(tmp_path / "d", 0, size=32, seed=2))
    rec = manifest.split("test")[0]
    for t, path in rec.targets.items():
        dio.save_pgm(tmp_path / ev.prediction_filename(rec.input_path, t, "expectation"),
                     dio.load_pgm(manifest.root / path))
    ev.evaluate_predictions(manifest, tmp_path, sample_size=100, repetitions=1)
    with pytest.raises(ConfigError):
        ev.evaluate_predictions(manifest, tmp_path, sample_size=100, repetitions=repetitions)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def make_report():
    vals = rng.integers(0, 256, size=400).astype(np.float64)
    conf = ev.confusion(vals, vals)
    task = ev.TaskReport(0, "nuclei", 0.93, 0.004, conf, 400, 30)
    return ev.EvalReport(tasks=[task], seed=3, render="expectation")


def test_report_json_and_csv_round_trip(tmp_path):
    report = make_report()
    paths = report.write(tmp_path)
    doc = json.loads(paths["json"].read_text())
    assert doc["tasks"]["0"]["overall_accuracy"] == 1.0
    assert doc["tasks"]["0"]["pearson_mean"] == 0.93
    csv_lines = paths["confusion_0"].read_text().splitlines()
    assert len(csv_lines) == 11
    table = paths["table"].read_text()
    assert "Overall" in table and "nuclei" in table


def test_table_renders_dash_for_absent_bins():
    truth = np.full(10, 55.0)
    conf = ev.confusion(np.full(10, 55.0), truth)
    report = ev.EvalReport(
        tasks=[ev.TaskReport(1, "viability", 1.0, 0.0, conf, 10, 5)],
        seed=0, render="argmax")
    text = report.table_text()
    row = text.splitlines()[1]
    assert "-" in row
    assert "1.000" in row
