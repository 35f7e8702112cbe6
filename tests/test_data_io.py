"""File formats, manifests, and the synthetic scene generator."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from vstain import data_io as dio
from vstain.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, size=(32, 24)).astype(np.float32)
    path = tmp_path / "x.pgm"
    dio.save_pgm(path, img)
    back = dio.load_pgm(path)
    assert np.array_equal(back, img)
    dio.save_pgm(tmp_path / "y.pgm", back)
    assert (tmp_path / "y.pgm").read_bytes() == path.read_bytes()


def test_save_pgm_rejects_nan_and_leaves_no_file(tmp_path):
    image = np.full((4, 4), 7.0)
    image[1, 2] = np.nan
    path = tmp_path / "x.pgm"
    with pytest.raises(DataError, match="outside 0-255"):
        dio.save_pgm(path, image)
    assert list(tmp_path.iterdir()) == []


def test_save_pgm_squeezes_one_channel_and_rejects_other_ranks(tmp_path):
    image = np.arange(12, dtype=np.float32).reshape(3, 4, 1)
    dio.save_pgm(tmp_path / "a.pgm", image)
    assert np.array_equal(dio.load_pgm(tmp_path / "a.pgm"), image[:, :, 0])
    for shape in [(3, 4, 2), (12,), (1, 3, 4, 1)]:
        with pytest.raises(DataError, match=re.escape(f"expected (H,W), got {shape}")):
            dio.save_pgm(tmp_path / "b.pgm", np.zeros(shape))
    assert not (tmp_path / "b.pgm").exists()


def test_pgm_rejects_other_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n100\n" + bytes(4))
    with pytest.raises(DataError, match="maxval"):
        dio.load_pgm(path)


def test_pgm_truncation_reports_offset(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(DataError, match="byte"):
        dio.load_pgm(path)


def test_pgm_comments_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
    img = dio.load_pgm(path)
    assert np.array_equal(img, [[7.0, 9.0]])


def test_pgm_header_longer_than_the_first_read(tmp_path):
    path = tmp_path / "long.pgm"
    comment = b"# " + b"x" * 12288 + b"\n"
    path.write_bytes(b"P5\n" + comment + b"2 1\n" + comment + b"255\n\x07\x09")
    assert np.array_equal(dio.load_pgm(path), [[7.0, 9.0]])


def test_pgm_size_mismatch_is_found_before_the_payload_is_read(tmp_path):
    path = tmp_path / "big.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="payload length mismatch"):
            dio.load_pgm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_image_gptt_rank3(tmp_path):
    from vstain import gptt
    arr = np.random.default_rng(1).random((5, 6, 2)).astype(np.float32) * 255
    path = tmp_path / "img.gptt"
    gptt.save_gptt(path, arr)
    back = dio.load_image(path)
    assert back.shape == (5, 6, 2)
    assert np.array_equal(back, arr)


def test_load_image_unknown_extension(tmp_path):
    path = tmp_path / "x.tiff"
    path.write_bytes(b"")
    with pytest.raises(DataError):
        dio.load_image(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_dataset(tmp_path, **kwargs):
    return dio.generate_dataset(tmp_path / "data", n_train=2, size=32, seed=5,
                                tasks=("nuclei", "viability"), n_test=1, **kwargs)


def test_manifest_round_trip(tmp_path):
    mpath = write_dataset(tmp_path)
    manifest = dio.load_manifest(mpath)
    assert len(manifest.samples) == 3
    assert len(manifest.split("train")) == 2
    assert len(manifest.split("test")) == 1
    assert manifest.task_names == ("nuclei", "viability")
    for rec in manifest.samples:
        sample = dio.load_sample(manifest, rec, task_count=2)
        assert set(sample.targets) == {0, 1}
    dio.save_manifest(tmp_path / "again.json", manifest)
    assert (tmp_path / "again.json").read_text() == mpath.read_text()


def test_load_sample_reports_missing_target(tmp_path):
    mpath = write_dataset(tmp_path)
    manifest = dio.load_manifest(mpath)
    rel = manifest.samples[0].targets[1]
    (manifest.root / rel).unlink()
    with pytest.raises(DataError, match=rel):
        dio.load_sample(manifest, manifest.samples[0])


def test_train_reports_dimension_mismatch(tmp_path):
    from vstain import training
    from vstain.network import NetworkConfig

    mpath = write_dataset(tmp_path)
    manifest = dio.load_manifest(mpath)
    rel = manifest.samples[1].targets[0]
    dio.save_pgm(manifest.root / rel, np.zeros((8, 8)))
    with pytest.raises(DataError, match=f"{rel}: target dims"):
        training.train(manifest, NetworkConfig.tiny(patch_size=16),
                       training.TrainConfig(max_steps=1), tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task", [1, -1])
def test_load_sample_rejects_out_of_range_task_before_reading_targets(tmp_path, task):
    mpath = write_dataset(tmp_path)
    manifest = dio.load_manifest(mpath)
    rec = manifest.samples[0]
    rec.targets = {task if t == 1 else t: rel for t, rel in rec.targets.items()}
    for rel in rec.targets.values():
        (manifest.root / rel).unlink()  # reading a target would fail otherwise
    with pytest.raises(DataError, match=rf"task id {task} out of range \[0, 1\)"):
        dio.load_sample(manifest, rec, task_count=1)
    if task < 0:
        with pytest.raises(DataError, match="task id -1 out of range"):
            dio.load_sample(manifest, rec)


def test_load_manifest_rejects_unknown_split(tmp_path):
    mpath = write_dataset(tmp_path)
    doc = json.loads(mpath.read_text())
    doc["samples"][2]["split"] = "val"
    mpath.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="sample record 2 has unknown split 'val'"):
        dio.load_manifest(mpath)


def test_load_sample_checks_dims(tmp_path):
    mpath = write_dataset(tmp_path)
    manifest = dio.load_manifest(mpath)
    sample = dio.load_sample(manifest, manifest.samples[0])
    assert sample.image.shape == (32, 32, 1)
    assert set(sample.targets) == {0, 1}
    dio.save_pgm(manifest.root / manifest.samples[0].targets[0], np.zeros((8, 8)))
    with pytest.raises(DataError):
        dio.load_sample(manifest, manifest.samples[0])


def test_malformed_manifest_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        dio.load_manifest(path)


@pytest.mark.parametrize("names", [5, "abc", ["nuclei", 2]])
def test_task_names_must_be_a_list_of_strings(tmp_path, names):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"samples": [], "task_names": names}))
    with pytest.raises(DataError, match="task_names"):
        dio.load_manifest(path)
    path.write_text(json.dumps({"samples": [], "task_names": ["a", "b"]}))
    assert dio.load_manifest(path).task_names == ("a", "b")


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def test_same_seed_same_sample():
    spec = dio.SyntheticSceneSpec(size=64, seed=9)
    a = dio.generate_synthetic(spec)
    b = dio.generate_synthetic(spec)
    assert np.array_equal(a.image, b.image)
    for t in a.targets:
        assert np.array_equal(a.targets[t], b.targets[t])


@pytest.mark.parametrize("spec", [
    dict(cell_count=(8, 3)),
    dict(cell_count=(-1, 3)),
    dict(noise_level=-0.5),
    dict(size=11),
], ids=["cells-min-above-max", "cells-negative", "noise-negative", "size-below-12"])
def test_synthetic_spec_out_of_range_is_config_error(spec):
    with pytest.raises(ConfigError):
        dio.generate_synthetic(dio.SyntheticSceneSpec(**{"size": 32, **spec}))


def test_zero_cells_means_zero_targets():
    spec = dio.SyntheticSceneSpec(size=32, cell_count=(0, 0), seed=1)
    sample = dio.generate_synthetic(spec)
    assert not sample.cells
    for arr in sample.targets.values():
        assert np.array_equal(arr, np.zeros((32, 32)))


def test_nuclei_bright_exactly_at_cell_centers():
    spec = dio.SyntheticSceneSpec(size=128, cell_count=(4, 6), seed=3)
    sample = dio.generate_synthetic(spec)
    nuclei = sample.targets[0]
    ys, xs = np.mgrid[0:128, 0:128]
    for cell in sample.cells:
        assert nuclei[int(round(cell.cy)), int(round(cell.cx))] > 150
    # pixels far from every cell stay dark
    far = np.ones((128, 128), bool)
    for cell in sample.cells:
        r = 4 * max(cell.rx, cell.ry)
        far &= (xs - cell.cx) ** 2 + (ys - cell.cy) ** 2 > r * r
    if far.any():
        assert nuclei[far].max() < 5


def test_viability_covers_only_dead_cells():
    spec = dio.SyntheticSceneSpec(size=96, cell_count=(6, 8), seed=17)
    sample = dio.generate_synthetic(spec)
    viability = sample.targets[1]
    for cell in sample.cells:
        value = viability[int(round(cell.cy)), int(round(cell.cx))]
        if cell.dead:
            assert value > 100
    if not any(c.dead for c in sample.cells):
        assert viability.max() == 0


def test_input_carries_cell_signal():
    spec = dio.SyntheticSceneSpec(size=96, cell_count=(3, 3), seed=4, noise_level=0.0)
    sample = dio.generate_synthetic(spec)
    img = sample.image[:, :, 0]
    cell = sample.cells[0]
    assert img[int(round(cell.cy)), int(round(cell.cx))] > 50  # above background 40


def test_generate_dataset_deterministic_bytes(tmp_path):
    p1 = dio.generate_dataset(tmp_path / "a", 2, size=32, seed=8, n_test=1)
    p2 = dio.generate_dataset(tmp_path / "b", 2, size=32, seed=8, n_test=1)
    assert p1.read_text() == p2.read_text()
    for rel in sorted(x.relative_to(tmp_path / "a")
                      for x in (tmp_path / "a").rglob("*") if x.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_scene_record_written(tmp_path):
    mpath = write_dataset(tmp_path)
    scenes = json.loads((mpath.parent / "scenes.json").read_text())
    assert set(scenes) == {"s000", "s001", "s002"}
    assert all(isinstance(v, list) for v in scenes.values())
