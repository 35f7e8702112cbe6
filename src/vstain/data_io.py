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
mean the sample carries no ground truth for that task. A split other
than "train" or "test" is a DataError when the manifest loads; every
other check on a sample is made by :func:`load_sample` as it reads it.

The synthetic generator renders soft-edged elliptical cells with bright
outlines into a noisy low-contrast image; targets are deterministic
functions of the same scene (per-cell center blobs, dead-cell bodies,
neuron bodies), so the input genuinely determines the labels and a
model can learn the mapping. Everything is a pure function of the seed.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gptt
from .errors import ConfigError, DataError

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
    with gptt.replacing(path) as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.rint(image).astype(np.uint8))


def _pgm_header(f, path: str) -> tuple[int, int, int]:
    """(width, height, payload offset) of the P5 header that starts the
    open binary file `f`, read from it a byte at a time."""
    magic = f.read(2)
    if magic != b"P5":
        raise DataError(f"{path}: not binary PGM (magic {magic!r} at byte 0)")
    fields, c = [], f.read(1)
    for _ in range(3):
        while c == b"#" or c.isspace():  # whitespace, or a comment to its line's end
            comment, c = c == b"#", f.read(1)
            while comment and c not in (b"\n", b"\r", b""):
                c = f.read(1)
        token = bytearray()
        while c and not c.isspace():
            token += c
            c = f.read(1)
        if not token:
            raise DataError(f"{path}: truncated header at byte {f.tell()}")
        try:
            fields.append(int(token))
        except ValueError:
            raise DataError(f"{path}: bad header token {bytes(token)!r} at byte "
                            f"{f.tell() - len(c)}") from None
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: maxval {maxval} unsupported, expected 255")
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad extents {w}x{h}")
    return w, h, f.tell() - len(c) + 1  # single whitespace byte after maxval


def load_pgm(path: str | Path) -> np.ndarray:
    """Read binary P5 into an (H, W) float32 array of 0-255 values.

    The header is checked against the file's size before the payload is
    read, straight from the open file into its array.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            w, h, pos = _pgm_header(f, str(path))
            size = f.seek(0, io.SEEK_END)
            expected = pos + w * h
            if size != expected:
                raise DataError(
                    f"{path}: payload length mismatch at byte {pos}: "
                    f"file has {size} bytes, expected {expected}"
                )
            data = np.empty((h, w), dtype=np.uint8)
            f.seek(pos)
            if f.readinto(data) != data.nbytes:  # the file shrank after its size was taken
                raise DataError(f"{path}: truncated payload at byte {pos}")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return data.astype(np.float32)


# ---------------------------------------------------------------------------
# image dispatch
# ---------------------------------------------------------------------------

def load_image(path: str | Path) -> np.ndarray:
    """Load .pgm or .gptt as (H, W, C) float32 with values in 0-255 class space.

    A GPTT image holding NaN, an infinity or a value outside 0-255 is a
    DataError.
    """
    path = Path(path)
    if path.suffix == ".pgm":
        return load_pgm(path)[:, :, None]
    if path.suffix == ".gptt":
        arr = gptt.load_gptt(path)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise DataError(f"{path}: expected rank 2 or 3 tensor, got rank {arr.ndim}")
        if not np.all((arr >= 0) & (arr <= 255)):  # NaN fails both
            raise DataError(f"{path}: values outside 0-255 or not finite")
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise DataError(f"{path}: manifest must be an object with a 'samples' list")
    samples = []
    for i, rec in enumerate(doc["samples"]):
        if not isinstance(rec, dict) or not isinstance(rec.get("targets", {}), dict):
            raise DataError(f"{path}: sample record {i} and its 'targets' must be objects")
        try:
            targets = {int(t): p for t, p in rec.get("targets", {}).items()}
            samples.append(SampleRecord(
                input_path=rec["input"],
                targets=targets,
                condition=rec.get("condition", ""),
                split=rec.get("split", "train"),
            ))
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: bad sample record {i} ({exc})") from exc
        if not all(isinstance(p, str) for p in [rec["input"], *targets.values()]):
            raise DataError(f"{path}: sample record {i} has a path that is not a string")
        if samples[-1].split not in ("train", "test"):
            raise DataError(f"{path}: sample record {i} has unknown split "
                            f"{samples[-1].split!r}")
    names = doc.get("task_names", list(TASK_NAMES))
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise DataError(f"{path}: 'task_names' must be a list of strings")
    return Manifest(root=path.parent, samples=samples, task_names=tuple(names))


@dataclass
class LoadedSample:
    image: np.ndarray              # (H, W, C) float32, 0-255
    targets: dict[int, np.ndarray]  # task id -> (H, W) float32, 0-255


def load_sample(manifest: Manifest, rec: SampleRecord,
                task_count: int | None = None) -> LoadedSample:
    """Read one record's input and targets, each file once.

    Raises DataError for a task id outside [0, task_count) (any negative
    id when task_count is None) before any file is read, for a missing or
    unreadable file (the message names its path), and for a target that
    is not single-channel or whose extents differ from the input's.
    """
    top = math.inf if task_count is None else task_count
    for t in sorted(rec.targets):
        if not 0 <= t < top:
            raise DataError(f"{rec.input_path}: task id {t} out of range [0, {top})")
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
    return LoadedSample(image=image, targets=targets)


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

    def validate(self) -> None:
        """Raise ConfigError unless 0 <= min <= max cells, the noise is a
        finite number >= 0, size >= 12 (cells keep a 6-pixel margin on each
        side), seed >= 0 and the tasks are one or more of TASK_NAMES."""
        lo, hi = self.cell_count
        if not 0 <= lo <= hi:
            raise ConfigError(f"synthetic scene: cell count {self.cell_count} must "
                              "satisfy 0 <= min <= max")
        if not 0 <= self.noise_level < math.inf:  # written so that NaN fails
            raise ConfigError(f"synthetic scene: noise {self.noise_level} is not a "
                              "finite number >= 0")
        if self.size < 12:
            raise ConfigError(f"synthetic scene: size {self.size} must be >= 12")
        if self.seed < 0:
            raise ConfigError(f"synthetic scene: seed {self.seed} must be >= 0")
        if not self.tasks or any(t not in TASK_NAMES for t in self.tasks):
            raise ConfigError(f"synthetic scene: tasks {list(self.tasks)} are not one "
                              f"or more of {TASK_NAMES}")


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
    """Render one scene. Identical specs produce identical samples.

    Raises ConfigError for a spec :meth:`SyntheticSceneSpec.validate`
    rejects, and for a scene this process cannot allocate, naming the
    bytes its four float64 planes need.
    """
    spec.validate()
    try:
        return _render(spec)
    except MemoryError as exc:
        need = 4 * 8 * spec.size ** 2
        raise ConfigError(f"synthetic scene: a {spec.size}x{spec.size} scene needs at "
                          f"least {need} bytes, more than this process could "
                          "allocate") from exc


def _render(spec: SyntheticSceneSpec) -> SyntheticSample:
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
    spec = SyntheticSceneSpec(size=size, cell_count=cell_count,
                              noise_level=noise_level, seed=seed, tasks=tasks)
    spec.validate()  # before anything is written
    out_dir = Path(out_dir)
    images = out_dir / "images"
    records = []
    scenes = {}
    for i in range(n_train + n_test):
        split = "train" if i < n_train else "test"
        sample = generate_synthetic(replace(spec, seed=seed * 100003 + i))
        # made once a scene has rendered: a size no scene fits writes nothing
        images.mkdir(parents=True, exist_ok=True)
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
    out_dir.mkdir(parents=True, exist_ok=True)  # also for zero samples
    save_manifest(manifest_path, manifest)
    (out_dir / "scenes.json").write_text(json.dumps(scenes, indent=2, sort_keys=True) + "\n")
    return manifest_path
