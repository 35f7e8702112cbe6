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
:func:`forward` stops at the decoder features; :func:`logits` applies
the head to every task for prediction, while training fuses the head
into its loss and evaluates it on the labelled tasks only.

Checkpoints are single "GPTC" container files: a JSON header (config,
tensor manifest, optimizer metadata, RNG state) followed by the named
tensors as GPTT blobs in manifest order. Writing is deterministic, and
save -> load -> forward is bit-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import gptt
from .autograd import BnState, Variable
from .kernels import he_init
from .dense_block import DenseBlockParams, dense_forward, make_dense_block
from .errors import (ConfigError, DataError, NumericError, ShapeError,
                     require_types)
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
        if not isinstance(d, dict):
            raise ConfigError("config: 'network' must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"config: unknown fields {sorted(extra)}")
        return cls(**d)


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
    batch-norm scale 1 / shift 0."""
    config.validate()
    k = config.growth_rate
    qk = config.qk_channels
    drop = config.dropout_rate

    def conv1x1(c_in, c_out):
        return (ag.var(he_init(rng, (1, 1, c_in, c_out), c_in, dtype), requires_grad=True),
                ag.var(np.zeros(c_out, dtype=dtype), requires_grad=True))

    c = 3 * config.input_channels
    stem_w, stem_b = conv1x1(c, config.stem_channels)
    c = config.stem_channels

    encoder = []
    for depth, target in zip(config.encoder_depths, config.encoder_channels):
        db = make_dense_block(rng, c, depth, k, target, drop, dtype)
        gdt = make_gpt_layer(rng, target, GptVariant.DOWN, qk, dtype)
        encoder.append((db, gdt))
        c = target

    bottom_db = make_dense_block(rng, c, config.bottom_depth,
                                 k, config.bottom_channels, drop, dtype)
    bottom_gst = make_gpt_layer(rng, config.bottom_channels, GptVariant.SAME, qk, dtype)
    c = config.bottom_channels

    n = config.stages
    decoder = []
    for i, (depth, target) in enumerate(zip(config.decoder_depths,
                                            config.decoder_channels)):
        gut = make_gpt_layer(rng, c, GptVariant.UP, qk, dtype)
        if i < n - 1:
            skip_c = config.encoder_channels[n - 2 - i]
        else:
            skip_c = config.encoder_channels[0]
        cat = gut.out_channels + skip_c
        db = make_dense_block(rng, cat, depth, k, target, drop, dtype)
        decoder.append((gut, db))
        c = target

    head_w, head_b = conv1x1(c, config.head_channels)
    net = Network(config, stem_w, stem_b, encoder, bottom_db, bottom_gst,
                  decoder, head_w, head_b)
    _check_ledger(net)
    return net


def _check_ledger(net: Network) -> None:
    """Assert the allocated channel counts trace the configured ladder."""
    cfg = net.config
    for (db, gdt), target in zip(net.encoder, cfg.encoder_channels):
        if db.out_channels != target or gdt.out_channels != target:
            raise ConfigError("build: encoder stage channels disagree with config")
    if net.bottom_db.out_channels != cfg.bottom_channels:
        raise ConfigError("build: bottom channels disagree with config")
    for (gut, db), target in zip(net.decoder, cfg.decoder_channels):
        if db.out_channels != target:
            raise ConfigError("build: decoder stage channels disagree with config")
        if gut.out_channels != default_value_channels(GptVariant.UP, gut.in_channels):
            raise ConfigError("build: up transformer channels inconsistent")


def forward(net: Network, x: Variable, mode: str = "eval",
            rng: np.random.Generator | None = None) -> Variable:
    """Decoder features (N, patch, patch, decoder_channels[-1]) for a patch
    batch: the input of the 1x1 head (:func:`logits`)."""
    cfg = net.config
    n, h, w, c = x.data.shape
    if (h, w) != (cfg.patch_size, cfg.patch_size):
        raise ShapeError(
            f"forward: input is {h}x{w}, config patch size is {cfg.patch_size}"
        )
    if c != 3 * cfg.input_channels:
        raise ShapeError(
            f"forward: input has {c} channels, expected 3*{cfg.input_channels}"
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
        h_ = dense_forward(ag.concat_channels([u, skip]), db, mode, rng)
    return h_


def logits(net: Network, features: Variable) -> Variable:
    """Every task's logits (N, H, W, task_count * value_classes) from the
    decoder features; raises NumericError if any is non-finite."""
    out = ag.conv2d(features, net.head_w, net.head_b, stride=1)
    # a NaN or an infinity shows in the max or the min
    if not (np.isfinite(out.data.max()) and np.isfinite(out.data.min())):
        raise NumericError("head: non-finite logits")
    return out


def predict_distributions_inplace(logits: np.ndarray, task_count: int,
                                  value_classes: int) -> np.ndarray:
    """:func:`predict_distributions` written over the C-contiguous float
    array `logits`; returns the (N,H,W,T,V) view of it."""
    n, h, w, c = logits.shape
    if c != task_count * value_classes:
        raise ShapeError(
            f"predict_distributions: {c} channels != {task_count}*{value_classes}"
        )
    e = logits.reshape(n, h, w, task_count, value_classes)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def predict_distributions(logits: np.ndarray, task_count: int,
                          value_classes: int) -> np.ndarray:
    """Softmax over the value-class axis: (N,H,W,T*V) -> (N,H,W,T,V)."""
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
    if reduction == "argmax":
        img = p.argmax(axis=-1)
    elif reduction == "expectation":
        classes = np.arange(p.shape[-1], dtype=np.float64)
        img = np.empty(p.shape[:3], dtype=np.float64)
        for r in range(p.shape[1]):  # one row at a time: no full-size float64
            row = p[:, r].astype(np.float64)
            row *= classes
            row.sum(axis=-1, out=img[:, r])
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
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(hbytes)))
        f.write(hbytes)
        for _, arr in entries:
            gptt.write_gptt(f, arr)


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """Read a GPTC container; returns (network, extras).

    The header must list exactly the tensors :func:`checkpoint_tensors`
    names for its config, in that order, and every tensor must have the
    shape the config gives it. extras holds "step", "rng_state" and,
    when saved, "optimizer" with fully materialised moment tensors.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a GPTC checkpoint (bad magic at byte 0)")
    version, hlen = struct.unpack_from("<IQ", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < 16 + hlen:
        raise DataError(f"{path}: truncated header at byte {len(raw)}")
    try:
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: header is not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
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
        net = build(NetworkConfig.from_dict(header["config"]), np.random.default_rng(0))
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
    offset = 16 + hlen
    for name, slot in entries:
        arr, offset = gptt.read_gptt_at(raw, offset, source=f"{path}:{name}")
        if arr.shape != slot.shape:
            raise DataError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                            f"expected {slot.shape}")
        slot[...] = arr
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes at {offset}")

    extras: dict = {"step": step, "rng_state": rng_state}
    if moments is not None:
        extras["optimizer"] = {"t": opt_meta["t"], **moments}
    return net, extras
