"""Dataset files: PGM images, JSON manifests, and a synthetic generator.

Images travel as binary P5 PGM (8-bit grayscale, maxval 255) when meant
for human inspection and as GPTT tensors otherwise; both round-trip
bit-exactly. A manifest is a JSON file

    {
      "task_names": ["nuclei", ...],            # optional
      "samples": [
        {"input": "imgs/s000_input.pgm",
         "targets": {"0": "imgs/s000_task0.pgm", "1": ...},
         "condition": "synthetic",
         "split": "train"},
        ...
      ]
    }

with all paths relative to the manifest's directory. Absent task ids
mean the sample carries no ground truth for that task.

The synthetic generator renders soft-edged elliptical cells with bright
outlines into a noisy low-contrast image; targets are deterministic
functions of the same scene (per-cell center blobs, dead-cell bodies,
neuron bodies), so the input genuinely determines the labels and a
model can learn the mapping. Everything is a pure function of the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gptt
from .errors import DataError

TASK_NAMES = ("nuclei", "viability", "type")


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def save_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write an (H, W) array of 0-255 values as binary P5 with maxval 255."""
    image = np.asarray(image)
    if image.ndim == 3 and image.shape[2] == 1:
        image = image[:, :, 0]
    if image.ndim != 2:
        raise DataError(f"save_pgm: expected (H,W), got {image.shape}")
    if np.any(image < 0) or np.any(image > 255):
        raise DataError("save_pgm: values outside 0-255")
    h, w = image.shape
    payload = np.rint(image).astype(np.uint8).tobytes()
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload)


def _parse_pgm_token(raw: bytes, pos: int, path: str) -> tuple[bytes, int]:
    while pos < len(raw):
        c = raw[pos : pos + 1]
        if c == b"#":
            while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(raw) and not raw[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataError(f"{path}: truncated header at byte {start}")
    return raw[start:pos], pos


def load_pgm(path: str | Path) -> np.ndarray:
    """Read binary P5 into an (H, W) float32 array of 0-255 values."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if raw[:2] != b"P5":
        raise DataError(f"{path}: not binary PGM (magic {raw[:2]!r} at byte 0)")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _parse_pgm_token(raw, pos, str(path))
        try:
            fields.append(int(token))
        except ValueError:
            raise DataError(f"{path}: bad header token {token!r} at byte {pos}") from None
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: maxval {maxval} unsupported, expected 255")
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad extents {w}x{h}")
    pos += 1  # single whitespace byte after maxval
    expected = pos + w * h
    if len(raw) != expected:
        raise DataError(
            f"{path}: payload length mismatch at byte {pos}: "
            f"file has {len(raw)} bytes, expected {expected}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return data.reshape(h, w).astype(np.float32)


# ---------------------------------------------------------------------------
# image dispatch
# ---------------------------------------------------------------------------

def load_image(path: str | Path) -> np.ndarray:
    """Load .pgm or .gptt as (H, W, C) float32 with values in 0-255 class space."""
    path = Path(path)
    if path.suffix == ".pgm":
        return load_pgm(path)[:, :, None]
    if path.suffix == ".gptt":
        arr = gptt.load_gptt(path)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise DataError(f"{path}: expected rank 2 or 3 tensor, got rank {arr.ndim}")
        return arr
    raise DataError(f"{path}: unknown image extension {path.suffix!r}")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass
class SampleRecord:
    input_path: str
    targets: dict[int, str]
    condition: str = ""
    split: str = "train"


@dataclass
class Manifest:
    root: Path
    samples: list[SampleRecord]
    task_names: tuple[str, ...] = TASK_NAMES

    def split(self, which: str) -> list[SampleRecord]:
        return [s for s in self.samples if s.split == which]


def save_manifest(path: str | Path, manifest: Manifest) -> None:
    doc = {
        "task_names": list(manifest.task_names),
        "samples": [
            {
                "input": rec.input_path,
                "targets": {str(t): p for t, p in sorted(rec.targets.items())},
                "condition": rec.condition,
                "split": rec.split,
            }
            for rec in manifest.samples
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "samples" not in doc:
        raise DataError(f"{path}: manifest must be an object with a 'samples' list")
    samples = []
    for i, rec in enumerate(doc["samples"]):
        try:
            targets = {int(t): p for t, p in rec.get("targets", {}).items()}
            samples.append(SampleRecord(
                input_path=rec["input"],
                targets=targets,
                condition=rec.get("condition", ""),
                split=rec.get("split", "train"),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad sample record {i} ({exc})") from exc
    names = tuple(doc.get("task_names", TASK_NAMES))
    return Manifest(root=path.parent, samples=samples, task_names=names)


def validate_manifest(manifest: Manifest, task_count: int | None = None) -> list[dict]:
    """Machine-readable issue list; an empty list means the manifest is sound."""
    issues: list[dict] = []
    for i, rec in enumerate(manifest.samples):
        input_path = manifest.root / rec.input_path
        dims = None
        if not input_path.exists():
            issues.append({"sample": i, "file": str(input_path),
                           "problem": "missing input file"})
        else:
            try:
                dims = load_image(input_path).shape[:2]
            except DataError as exc:
                issues.append({"sample": i, "file": str(input_path),
                               "problem": f"unreadable input: {exc}"})
        for t, rel in sorted(rec.targets.items()):
            if t < 0 or (task_count is not None and t >= task_count):
                issues.append({"sample": i, "task": t,
                               "problem": f"task id out of range [0, {task_count})"})
            tpath = manifest.root / rel
            if not tpath.exists():
                issues.append({"sample": i, "task": t, "file": str(tpath),
                               "problem": "missing target file"})
                continue
            try:
                tdims = load_image(tpath).shape[:2]
            except DataError as exc:
                issues.append({"sample": i, "task": t, "file": str(tpath),
                               "problem": f"unreadable target: {exc}"})
                continue
            if dims is not None and tdims != dims:
                issues.append({
                    "sample": i, "task": t,
                    "problem": f"dimension mismatch: input {dims}, target {tdims}",
                })
        if rec.split not in ("train", "test"):
            issues.append({"sample": i, "problem": f"unknown split {rec.split!r}"})
    return issues


@dataclass
class LoadedSample:
    image: np.ndarray              # (H, W, C) float32, 0-255
    targets: dict[int, np.ndarray]  # task id -> (H, W) float32, 0-255
    condition: str = ""


def load_sample(manifest: Manifest, rec: SampleRecord) -> LoadedSample:
    image = load_image(manifest.root / rec.input_path)
    targets = {}
    for t, rel in sorted(rec.targets.items()):
        arr = load_image(manifest.root / rel)
        if arr.shape[2] != 1:
            raise DataError(f"{rel}: target must be single-channel, got {arr.shape}")
        if arr.shape[:2] != image.shape[:2]:
            raise DataError(
                f"{rel}: target dims {arr.shape[:2]} != input dims {image.shape[:2]}"
            )
        targets[t] = arr[:, :, 0]
    return LoadedSample(image=image, targets=targets, condition=rec.condition)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    cx: float
    cy: float
    rx: float
    ry: float
    angle: float
    dead: bool
    neuron: bool


@dataclass
class SyntheticSceneSpec:
    size: int = 128
    cell_count: tuple[int, int] = (3, 8)   # inclusive range
    noise_level: float = 4.0
    seed: int = 0
    tasks: tuple[str, ...] = TASK_NAMES


@dataclass
class SyntheticSample:
    image: np.ndarray               # (H, W, 1) float32 0-255
    targets: dict[int, np.ndarray]  # task id -> (H, W) float32 0-255
    cells: list[Cell]


def _cell_distance(size: int, cell: Cell) -> np.ndarray:
    """Normalised elliptical distance from the cell boundary (1.0 = boundary)."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dx = xs - cell.cx
    dy = ys - cell.cy
    ca, sa = math.cos(cell.angle), math.sin(cell.angle)
    u = (dx * ca + dy * sa) / cell.rx
    v = (-dx * sa + dy * ca) / cell.ry
    return np.sqrt(u * u + v * v)


def generate_synthetic(spec: SyntheticSceneSpec) -> SyntheticSample:
    """Render one scene. Identical specs produce identical samples."""
    rng = np.random.default_rng(spec.seed)
    size = spec.size
    lo, hi = spec.cell_count
    n_cells = int(rng.integers(lo, hi + 1))
    margin = max(6, size // 16)
    cells = []
    for _ in range(n_cells):
        cells.append(Cell(
            cx=float(rng.uniform(margin, size - margin)),
            cy=float(rng.uniform(margin, size - margin)),
            rx=float(rng.uniform(size / 24, size / 10)),
            ry=float(rng.uniform(size / 24, size / 10)),
            angle=float(rng.uniform(0, math.pi)),
            dead=bool(rng.random() < 0.35),
            neuron=bool(rng.random() < 0.4),
        ))

    image = np.full((size, size), 40.0)
    nuclei = np.zeros((size, size))
    viability = np.zeros((size, size))
    cell_type = np.zeros((size, size))
    for cell in cells:
        d = _cell_distance(size, cell)
        body = 1.0 / (1.0 + np.exp(8.0 * (d - 1.0)))
        edge = np.exp(-12.0 * (d - 1.0) ** 2)
        image += 25.0 * body + 50.0 * edge
        nucleus = 255.0 * np.exp(-4.0 * d * d)
        nuclei = np.maximum(nuclei, nucleus)
        if cell.dead:
            viability = np.maximum(viability, 220.0 * body)
        if cell.neuron:
            cell_type = np.maximum(cell_type, 220.0 * body)
    image += rng.normal(0.0, spec.noise_level, size=(size, size))
    image = np.clip(np.rint(image), 0, 255)

    rendered = {"nuclei": nuclei, "viability": viability, "type": cell_type}
    targets = {}
    for t, name in enumerate(spec.tasks):
        if name not in rendered:
            raise DataError(f"unknown synthetic task {name!r}; choose from {TASK_NAMES}")
        targets[t] = np.clip(np.rint(rendered[name]), 0, 255).astype(np.float32)
    return SyntheticSample(
        image=image.astype(np.float32)[:, :, None],
        targets=targets,
        cells=cells,
    )


def generate_dataset(
    out_dir: str | Path,
    n_train: int,
    size: int = 128,
    seed: int = 0,
    tasks: tuple[str, ...] = TASK_NAMES,
    n_test: int = 1,
    cell_count: tuple[int, int] = (3, 8),
    noise_level: float = 4.0,
) -> Path:
    """Write PGM images, a scene record and manifest.json; returns the manifest path."""
    out_dir = Path(out_dir)
    images = out_dir / "images"
    images.mkdir(parents=True, exist_ok=True)
    records = []
    scenes = {}
    for i in range(n_train + n_test):
        split = "train" if i < n_train else "test"
        sample = generate_synthetic(SyntheticSceneSpec(
            size=size, cell_count=cell_count, noise_level=noise_level,
            seed=seed * 100003 + i, tasks=tasks,
        ))
        stem = f"s{i:03d}"
        save_pgm(images / f"{stem}_input.pgm", sample.image[:, :, 0])
        targets = {}
        for t, arr in sample.targets.items():
            rel = f"images/{stem}_task{t}.pgm"
            save_pgm(out_dir / rel, arr)
            targets[t] = rel
        records.append(SampleRecord(
            input_path=f"images/{stem}_input.pgm",
            targets=targets,
            condition="synthetic",
            split=split,
        ))
        scenes[stem] = [vars(c) for c in sample.cells]
    manifest = Manifest(root=out_dir, samples=records, task_names=tasks)
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, manifest)
    (out_dir / "scenes.json").write_text(json.dumps(scenes, indent=2, sort_keys=True) + "\n")
    return manifest_path
