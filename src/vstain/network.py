"""Full model assembly and checkpointing.

The network is a U-shaped pipeline over 128x128 multi-scale patches:

    1x1 stem conv -> [dense block -> down transformer] x3
      -> dense block -> same transformer (bottom)
      -> [up transformer -> skip concat -> dense block] x3
      -> 1x1 head conv producing task_count * value_classes logit maps.

Skip sources are the down-transformer outputs at the two intermediate
resolutions and the first dense block's output at full resolution; each
is channel-concatenated with the matching up-transformer output before
the decoder dense block. The head emits one value-class distribution
per task and pixel (no activation; softmax happens downstream).
:func:`forward` stops at the decoder features. Prediction fuses the
head with the softmax in slabs of window rows, and training fuses it
into its loss and evaluates it on the labelled tasks only.

Checkpoints are single "GPTC" container files: a JSON header (config,
tensor manifest, optimizer metadata, RNG state) followed by the named
tensors as GPTT blobs in manifest order. Writing is deterministic, and
save -> load -> forward is bit-identical.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import gptt, kernels
from .autograd import Variable
from .kernels import he_init
from .dense_block import BnState, DenseBlockParams, dense_forward, make_dense_block
from .errors import ConfigError, DataError, ShapeError, from_fields, require_types
from .gpt_layer import (GptLayerParams, GptVariant, default_value_channels,
                        gpt_forward, make_gpt_layer)

CHECKPOINT_MAGIC = b"GPTC"
CHECKPOINT_VERSION = 1
STAGE_LISTS = ("encoder_depths", "encoder_channels", "decoder_depths",
               "decoder_channels")


@dataclass
class NetworkConfig:
    """Architecture hyperparameters; defaults give the full-size model."""

    input_channels: int = 1
    task_count: int = 8
    value_classes: int = 256
    patch_size: int = 128
    growth_rate: int = 16
    stem_channels: int = 32
    encoder_depths: tuple[int, ...] = (2, 4, 8)
    encoder_channels: tuple[int, ...] = (64, 128, 256)
    bottom_depth: int = 8
    bottom_channels: int = 384
    decoder_depths: tuple[int, ...] = (4, 2, 1)
    decoder_channels: tuple[int, ...] = (288, 165, 90)
    dropout_rate: float = 0.5
    qk_channels: int | None = None  # None: each layer uses max(c_in // 2, 1)

    def __post_init__(self):
        for name in STAGE_LISTS:
            if isinstance(getattr(self, name), list):
                setattr(self, name, tuple(getattr(self, name)))

    @property
    def stages(self) -> int:
        return len(self.encoder_depths)

    @property
    def head_channels(self) -> int:
        return self.task_count * self.value_classes

    def validate(self) -> None:
        require_types("config", self, int_lists=STAGE_LISTS, reals=("dropout_rate",),
                      ints=("input_channels", "task_count", "value_classes",
                            "patch_size", "growth_rate", "stem_channels",
                            "bottom_depth", "bottom_channels")
                      + (("qk_channels",) if self.qk_channels is not None else ()))
        if min(self.input_channels, self.task_count, self.value_classes,
               self.patch_size, self.growth_rate, self.stem_channels,
               self.bottom_channels) < 1:
            raise ConfigError("config: all counts must be >= 1")
        if self.bottom_depth < 0:
            raise ConfigError("config: negative dense block depth")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"config: dropout_rate {self.dropout_rate} not in [0, 1)")
        n = self.stages
        if n < 1:
            raise ConfigError("config: need at least one encoder stage")
        lens = {len(self.encoder_channels), len(self.decoder_depths),
                len(self.decoder_channels)}
        if lens != {n}:
            raise ConfigError("config: encoder/decoder stage lists must have equal length")
        if any(d < 0 for d in self.encoder_depths + self.decoder_depths):
            raise ConfigError("config: negative dense block depth")
        if any(c < 1 for c in self.encoder_channels + self.decoder_channels):
            raise ConfigError("config: stage channel targets must be >= 1")
        if self.patch_size % (1 << n) != 0:
            raise ConfigError(
                f"config: patch_size {self.patch_size} must be divisible by {1 << n}"
            )
        if self.qk_channels is not None and self.qk_channels < 1:
            raise ConfigError("config: qk_channels must be >= 1 when set")
        # He init draws float64, so every tensor must fit an 8-byte array
        if 8 * checkpoint_elements(self) > np.iinfo(np.intp).max:
            raise ConfigError("config: its tensors are too large to be arrays")

    @classmethod
    def tiny(cls, patch_size: int = 16, task_count: int = 2,
             value_classes: int = 4) -> "NetworkConfig":
        """Shrunken architecture for gradient checks and fast tests."""
        return cls(
            input_channels=1, task_count=task_count, value_classes=value_classes,
            patch_size=patch_size, growth_rate=2, stem_channels=4,
            encoder_depths=(1, 1, 1), encoder_channels=(6, 8, 10),
            bottom_depth=1, bottom_channels=12,
            decoder_depths=(1, 1, 1), decoder_channels=(10, 8, 6),
            dropout_rate=0.5,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        for name in STAGE_LISTS:
            d[name] = list(d[name])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        return from_fields(cls, "config", "network", d)


def stage_ledger(config: NetworkConfig) -> list[tuple[str, int, int]]:
    """(stage name, spatial extent, output channels) per summary row.

    Rows cover stem, each encoder stage (after its down transformer),
    the bottom block, each decoder stage (after its dense block) and the
    head; the extents trace the full resolution ladder.
    """
    rows = [("stem", config.patch_size, config.stem_channels)]
    s = config.patch_size
    for i, c in enumerate(config.encoder_channels, start=1):
        s //= 2
        rows.append((f"enc{i}", s, c))
    rows.append(("bottom", s, config.bottom_channels))
    for i, c in enumerate(config.decoder_channels, start=1):
        s *= 2
        rows.append((f"dec{i}", s, c))
    rows.append(("head", config.patch_size, config.head_channels))
    return rows


@dataclass
class Network:
    config: NetworkConfig
    stem_w: Variable
    stem_b: Variable
    encoder: list[tuple[DenseBlockParams, GptLayerParams]]
    bottom_db: DenseBlockParams
    bottom_gst: GptLayerParams
    decoder: list[tuple[GptLayerParams, DenseBlockParams]]
    head_w: Variable
    head_b: Variable

    def blocks(self):
        """(stage name, block) for every dense block and transformer layer,
        in forward order: ("enc1.db", db), ("enc1.gdt", gdt), ..., ("dec3.db", db)."""
        for i, (db, gdt) in enumerate(self.encoder, start=1):
            yield f"enc{i}.db", db
            yield f"enc{i}.gdt", gdt
        yield "bottom.db", self.bottom_db
        yield "bottom.gst", self.bottom_gst
        for i, (gut, db) in enumerate(self.decoder, start=1):
            yield f"dec{i}.gut", gut
            yield f"dec{i}.db", db

    def named_parameters(self) -> dict[str, Variable]:
        """Stable name -> trainable variable map (checkpoint order)."""
        out = {"stem.w": self.stem_w, "stem.b": self.stem_b}
        for stage, block in self.blocks():
            out.update((f"{stage}.{s}", v) for s, v in block.param_items())
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def named_state(self) -> dict[str, BnState]:
        """Stable name -> batch-norm running state map."""
        return {f"{stage}.{s}": st for stage, block in self.blocks()
                for s, st in block.state_items()}

    def parameter_count(self) -> int:
        return sum(v.data.size for v in self.named_parameters().values())


def build(config: NetworkConfig, rng: np.random.Generator,
          dtype=np.float32) -> Network:
    """Allocate all parameters: He init for conv weights, zero biases,
    batch-norm scale 1 / shift 0.

    A config whose tensors this process cannot allocate is a ConfigError
    that names the bytes they need.
    """
    config.validate()
    try:
        return _allocate(config, rng, dtype)
    except MemoryError as exc:
        need = checkpoint_elements(config) * np.dtype(dtype).itemsize
        raise ConfigError(f"config: its tensors need {need} bytes, more than this "
                          "process could allocate") from exc


def _plan(config: NetworkConfig):
    """(input channels, spec) for every dense block and transformer layer
    in the forward order of :meth:`Network.blocks`: spec is (depth, output
    channels) for a dense block, the GptVariant for a transformer layer.
    A decoder block also sees its skip (see :func:`forward`)."""
    c, n = config.stem_channels, config.stages
    for depth, target in zip(config.encoder_depths, config.encoder_channels):
        yield c, (depth, target)
        yield target, GptVariant.DOWN
        c = target
    yield c, (config.bottom_depth, config.bottom_channels)
    yield config.bottom_channels, GptVariant.SAME
    c = config.bottom_channels
    for i, (depth, target) in enumerate(zip(config.decoder_depths, config.decoder_channels)):
        yield c, GptVariant.UP
        skip_c = config.encoder_channels[n - 2 - i if i < n - 1 else 0]
        yield default_value_channels(GptVariant.UP, c) + skip_c, (depth, target)
        c = target


def _allocate(config: NetworkConfig, rng: np.random.Generator, dtype) -> Network:
    def conv1x1(c_in, c_out):
        return (ag.var(he_init(rng, (1, 1, c_in, c_out), dtype), requires_grad=True),
                ag.var(np.zeros(c_out, dtype=dtype), requires_grad=True))

    def block(c, spec):
        if isinstance(spec, GptVariant):
            return make_gpt_layer(rng, c, spec, config.qk_channels, dtype)
        depth, target = spec
        return make_dense_block(rng, c, depth, config.growth_rate, target,
                                config.dropout_rate, dtype)

    # stem, then every block in forward order, then head: the He-init draw order
    stem_w, stem_b = conv1x1(3 * config.input_channels, config.stem_channels)
    made = (block(c, spec) for c, spec in _plan(config))
    encoder = [(next(made), next(made)) for _ in range(config.stages)]
    bottom_db, bottom_gst = next(made), next(made)
    decoder = [(next(made), next(made)) for _ in range(config.stages)]
    head_w, head_b = conv1x1(config.decoder_channels[-1], config.head_channels)
    return Network(config, stem_w, stem_b, encoder, bottom_db, bottom_gst,
                   decoder, head_w, head_b)


def forward(net: Network, x: Variable, mode: str = "eval",
            rng: np.random.Generator | None = None) -> Variable:
    """Decoder features (N, patch, patch, decoder_channels[-1]) for a patch
    batch: the input of the 1x1 head."""
    cfg = net.config
    _, h, w, _ = x.data.shape
    if (h, w) != (cfg.patch_size, cfg.patch_size):
        raise ShapeError(
            f"forward: input is {h}x{w}, config patch size is {cfg.patch_size}"
        )

    h_ = ag.conv2d(x, net.stem_w, net.stem_b, stride=1)
    skip_full: Variable | None = None
    gdt_outs: list[Variable] = []
    for i, (db, gdt) in enumerate(net.encoder):
        d = dense_forward(h_, db, mode, rng)
        if i == 0:
            skip_full = d
        h_ = gpt_forward(d, gdt)
        gdt_outs.append(h_)

    d = dense_forward(h_, net.bottom_db, mode, rng)
    h_ = gpt_forward(d, net.bottom_gst)

    stages = cfg.stages
    for i, (gut, db) in enumerate(net.decoder):
        u = gpt_forward(h_, gut)
        skip = gdt_outs[stages - 2 - i] if i < stages - 1 else skip_full
        h_ = dense_forward([u, skip], db, mode, rng)
    return h_


def predict_distributions_inplace(logits: np.ndarray, task_count: int,
                                  value_classes: int, bounded: bool = False) -> np.ndarray:
    """:func:`predict_distributions` written over the C-contiguous float
    array `logits`; returns the (N,H,W,T,V) view of it. `bounded` says
    that no logit can be infinite (see :func:`kernels.dots_bounded`)."""
    e = logits.reshape(*logits.shape[:3], task_count, value_classes)
    kernels.exp_shifted_inplace(e, -1, "head: non-finite logits", bounded)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def predict_distributions(logits: np.ndarray, task_count: int,
                          value_classes: int) -> np.ndarray:
    """Softmax over the value-class axis: (N,H,W,T*V) -> (N,H,W,T,V).

    Raises NumericError on a NaN or an infinity among the logits.
    """
    return predict_distributions_inplace(np.array(logits), task_count, value_classes)


def distributions_to_image(probs: np.ndarray, task: int,
                           reduction: str = "expectation") -> np.ndarray:
    """Render one task's distributions to 0-255 grayscale (N, H, W).

    "argmax" takes the modal class (ties resolve to the lower index);
    "expectation" takes sum(i * p_i) rounded half-up. Both clamp to [0, 255].
    """
    if not 0 <= task < probs.shape[3]:
        raise ShapeError(f"distributions_to_image: task {task} out of range")
    p = probs[:, :, :, task, :]
    n, h, w, v = p.shape
    if reduction == "argmax":
        img = np.empty((n, h, w), dtype=np.intp)

        def piece(lo, hi):  # one row at a time: argmax copies a strided slice
            for r in range(lo, hi):
                np.argmax(p[:, r], axis=-1, out=img[:, r])

        ag.split_rows(piece, h, p.size * ag.PASS_WORK)
    elif reduction == "expectation":
        classes = np.arange(v, dtype=np.float64)
        img = np.empty((n, h, w), dtype=np.float64)

        def piece(lo, hi):  # one row at a time: no full-size float64
            row = np.empty((n, w, v))
            for r in range(lo, hi):
                np.multiply(p[:, r], classes, out=row)
                row.sum(axis=-1, out=img[:, r])

        ag.split_rows(piece, h, p.size * ag.PASS_WORK)
        img = np.floor(img + 0.5)
    else:
        raise ShapeError(f"distributions_to_image: unknown reduction {reduction!r}")
    return np.clip(img, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def checkpoint_tensors(net: Network, optimizer: dict | None = None
                       ) -> list[tuple[str, np.ndarray]]:
    """(name, array) for every tensor a checkpoint of `net` holds, in file order.

    Parameters, then each batch-norm state's running mean and variance,
    then, when an optimizer is given, every parameter's Adam m and then
    every parameter's Adam v. The arrays are the live ones, so their
    shapes are the shapes a checkpoint must hold.
    """
    params = net.named_parameters()
    out = [(f"param/{k}", v.data) for k, v in params.items()]
    for k, st in net.named_state().items():
        out += [(f"state/{k}.mean", st.mean), (f"state/{k}.var", st.var)]
    if optimizer is not None:
        for moment in ("m", "v"):
            out += [(f"adam.{moment}/{k}", optimizer[moment][k]) for k in params]
    return out


def checkpoint_elements(config: NetworkConfig, optimizer: bool = False) -> int:
    """Float32 values in a checkpoint of a network built from `config`.

    Counts, from the config alone, what :func:`checkpoint_tensors` holds:
    every parameter and batch-norm statistic, plus both Adam moments of
    every parameter when `optimizer` is set. The stage lists must have
    one equal length >= 1.
    """
    k = config.growth_rate

    def conv(c_in, c_out, taps=1):  # weight and bias
        return (taps * c_in + 1) * c_out

    def block(c, spec):
        if isinstance(spec, GptVariant):
            qk = config.qk_channels if config.qk_channels is not None else max(c // 2, 1)
            return conv(c, qk, 9) + conv(c, qk) + conv(c, default_value_channels(spec, c))
        depth, target = spec  # dense layer l sees c + l*k channels
        return (depth * (conv(c, k, 9) + 2 * k) + 9 * k * k * depth * (depth - 1) // 2
                + conv(c + depth * k, target))

    params = (conv(3 * config.input_channels, config.stem_channels)
              + sum(block(c, spec) for c, spec in _plan(config))
              + conv(config.decoder_channels[-1], config.head_channels))
    state = 2 * k * (sum(config.encoder_depths) + config.bottom_depth
                     + sum(config.decoder_depths))
    return params * (3 if optimizer else 1) + state


def save_checkpoint(
    path: str | Path,
    net: Network,
    step: int = 0,
    optimizer: dict | None = None,
    rng_state: dict | None = None,
) -> None:
    """Write a deterministic GPTC container.

    `optimizer`, when present, is {"t": int, "m": {name: array},
    "v": {name: array}} as produced by the training loop.
    """
    entries = checkpoint_tensors(net, optimizer)
    header = {
        "format": "gptc",
        "version": CHECKPOINT_VERSION,
        "config": net.config.to_dict(),
        "step": int(step),
        "optimizer": None if optimizer is None else {"t": int(optimizer["t"])},
        "rng_state": rng_state,
        "tensors": [name for name, _ in entries],
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with gptt.replacing(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(hbytes)))
        f.write(hbytes)
        for _, arr in entries:
            gptt.write_gptt(f, arr)


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """Read a GPTC container; returns (network, extras).

    The header must list exactly the tensors :func:`checkpoint_tensors`
    names for its config, in that order, and every tensor must have the
    shape the config gives it. A file too small for the tensors its
    config needs is rejected before the network is built, and each
    tensor is read from the open file, never the whole file at once.
    extras holds "step", "rng_state" and, when saved, "optimizer" with
    fully materialised moment tensors.
    """
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    with f:
        size = f.seek(0, io.SEEK_END)
        f.seek(0)
        head = f.read(16)
        if len(head) < 16 or head[:4] != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a GPTC checkpoint (bad magic at byte 0)")
        version, hlen = struct.unpack_from("<IQ", head, 4)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        if size < 16 + hlen:
            raise DataError(f"{path}: truncated header at byte {size}")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: header is not UTF-8 ({exc})") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise DataError(f"{path}: header is not JSON ({exc})") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: header is not a JSON object")
        if not isinstance(header.get("config"), dict):
            raise DataError(f"{path}: header has no 'config' object")
        if not isinstance(header.get("tensors"), list):
            raise DataError(f"{path}: header has no 'tensors' list")
        opt_meta = header.get("optimizer")
        if opt_meta is not None and not (isinstance(opt_meta, dict)
                                         and type(opt_meta.get("t")) is int):
            raise DataError(f"{path}: header 'optimizer' is neither null nor "
                            "an object with an integer 't'")
        step = header.get("step", 0)
        if type(step) is not int or step < 0:
            raise DataError(f"{path}: header 'step' is not an integer >= 0")
        rng_state = header.get("rng_state")
        if rng_state is not None:
            try:
                np.random.PCG64(0).state = rng_state
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise DataError(f"{path}: header 'rng_state' is not a PCG64 "
                                f"state ({exc!r})") from exc
        try:
            config = NetworkConfig.from_dict(header["config"])
            config.validate()
        except ConfigError as exc:
            raise DataError(f"{path}: header config is invalid ({exc})") from exc
        need, held = 4 * checkpoint_elements(config, opt_meta is not None), size - 16 - hlen
        if need > held:  # checked before build allocates what the header describes
            raise DataError(f"{path}: header config needs {need} bytes of tensors, "
                            f"the file holds {held} after the header")
        try:
            net = build(config, np.random.default_rng(0))
        except ConfigError as exc:
            raise DataError(f"{path}: header config is invalid ({exc})") from exc

        moments = None
        if opt_meta is not None:
            moments = {m: {k: np.zeros_like(v.data) for k, v in net.named_parameters().items()}
                       for m in ("m", "v")}
        entries = checkpoint_tensors(net, moments)
        if header["tensors"] != [name for name, _ in entries]:
            raise DataError(f"{path}: header tensor list differs from the "
                            f"{len(entries)} tensors its config and optimizer need")
        for name, slot in entries:
            arr = gptt.read_gptt(f, source=f"{path}:{name}")
            if arr.shape != slot.shape:
                raise DataError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                                f"expected {slot.shape}")
            slot[...] = arr
        offset = f.tell()
        if offset != size:
            raise DataError(f"{path}: {size - offset} trailing bytes at {offset}")

    extras: dict = {"step": step, "rng_state": rng_state}
    if moments is not None:
        extras["optimizer"] = {"t": opt_meta["t"], **moments}
    return net, extras
