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
from . import gptt
from .autograd import BnState, Variable
from .kernels import he_init
from .dense_block import DenseBlockParams, dense_forward, make_dense_block
from .errors import ConfigError, DataError, NumericError, ShapeError
from .gpt_layer import (GptLayerParams, GptVariant, default_value_channels,
                        gpt_forward, make_gpt_layer)

CHECKPOINT_MAGIC = b"GPTC"
CHECKPOINT_VERSION = 1


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
        self.encoder_depths = tuple(self.encoder_depths)
        self.encoder_channels = tuple(self.encoder_channels)
        self.decoder_depths = tuple(self.decoder_depths)
        self.decoder_channels = tuple(self.decoder_channels)

    @property
    def stages(self) -> int:
        return len(self.encoder_depths)

    @property
    def head_channels(self) -> int:
        return self.task_count * self.value_classes

    def validate(self) -> None:
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
        d["encoder_depths"] = list(self.encoder_depths)
        d["encoder_channels"] = list(self.encoder_channels)
        d["decoder_depths"] = list(self.decoder_depths)
        d["decoder_channels"] = list(self.decoder_channels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
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

    def named_parameters(self) -> dict[str, Variable]:
        """Stable name -> trainable variable map (checkpoint order)."""
        out: dict[str, Variable] = {"stem.w": self.stem_w, "stem.b": self.stem_b}

        def add_db(prefix: str, db: DenseBlockParams):
            for j, layer in enumerate(db.layers, start=1):
                out[f"{prefix}.l{j}.conv.w"] = layer.conv_w
                out[f"{prefix}.l{j}.conv.b"] = layer.conv_b
                out[f"{prefix}.l{j}.bn.gamma"] = layer.bn_gamma
                out[f"{prefix}.l{j}.bn.beta"] = layer.bn_beta
            out[f"{prefix}.out.w"] = db.out_w
            out[f"{prefix}.out.b"] = db.out_b

        def add_gpt(prefix: str, gl: GptLayerParams):
            out[f"{prefix}.gen.w"] = gl.gen_w
            out[f"{prefix}.gen.b"] = gl.gen_b
            out[f"{prefix}.key.w"] = gl.key_w
            out[f"{prefix}.key.b"] = gl.key_b
            out[f"{prefix}.value.w"] = gl.value_w
            out[f"{prefix}.value.b"] = gl.value_b

        for i, (db, gdt) in enumerate(self.encoder, start=1):
            add_db(f"enc{i}.db", db)
            add_gpt(f"enc{i}.gdt", gdt)
        add_db("bottom.db", self.bottom_db)
        add_gpt("bottom.gst", self.bottom_gst)
        for i, (gut, db) in enumerate(self.decoder, start=1):
            add_gpt(f"dec{i}.gut", gut)
            add_db(f"dec{i}.db", db)
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def named_state(self) -> dict[str, BnState]:
        """Stable name -> batch-norm running state map."""
        out: dict[str, BnState] = {}

        def add_db(prefix: str, db: DenseBlockParams):
            for j, layer in enumerate(db.layers, start=1):
                out[f"{prefix}.l{j}.bn"] = layer.bn_state

        for i, (db, _) in enumerate(self.encoder, start=1):
            add_db(f"enc{i}.db", db)
        add_db("bottom.db", self.bottom_db)
        for i, (_, db) in enumerate(self.decoder, start=1):
            add_db(f"dec{i}.db", db)
        return out

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
        gdt = make_gpt_layer(rng, target, GptVariant.DOWN, qk, target, dtype)
        encoder.append((db, gdt))
        c = target

    bottom_db = make_dense_block(rng, c, config.bottom_depth,
                                 k, config.bottom_channels, drop, dtype)
    bottom_gst = make_gpt_layer(rng, config.bottom_channels, GptVariant.SAME,
                                qk, config.bottom_channels, dtype)
    c = config.bottom_channels

    n = config.stages
    decoder = []
    for i, (depth, target) in enumerate(zip(config.decoder_depths,
                                            config.decoder_channels)):
        gut = make_gpt_layer(rng, c, GptVariant.UP, qk, None, dtype)
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
    """Logits (N, patch, patch, task_count * value_classes) for a patch batch."""
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

    logits = ag.conv2d(h_, net.head_w, net.head_b, stride=1)
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("forward: non-finite logits")
    return logits


def predict_distributions(logits: np.ndarray, task_count: int,
                          value_classes: int) -> np.ndarray:
    """Softmax over the value-class axis: (N,H,W,T*V) -> (N,H,W,T,V)."""
    n, h, w, c = logits.shape
    if c != task_count * value_classes:
        raise ShapeError(
            f"predict_distributions: {c} channels != {task_count}*{value_classes}"
        )
    z = logits.reshape(n, h, w, task_count, value_classes)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
        img = np.floor((p.astype(np.float64) * classes).sum(axis=-1) + 0.5)
    else:
        raise ShapeError(f"distributions_to_image: unknown reduction {reduction!r}")
    return np.clip(img, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _state_tensors(net: Network) -> dict[str, np.ndarray]:
    out = {}
    for name, st in net.named_state().items():
        out[f"{name}.mean"] = st.mean
        out[f"{name}.var"] = st.var
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
    params = net.named_parameters()
    state = _state_tensors(net)
    entries: list[tuple[str, np.ndarray]] = []
    entries += [(f"param/{k}", v.data) for k, v in params.items()]
    entries += [(f"state/{k}", v) for k, v in state.items()]
    opt_meta = None
    if optimizer is not None:
        opt_meta = {"t": int(optimizer["t"])}
        entries += [(f"adam.m/{k}", optimizer["m"][k]) for k in params]
        entries += [(f"adam.v/{k}", optimizer["v"][k]) for k in params]

    header = {
        "format": "gptc",
        "version": CHECKPOINT_VERSION,
        "config": net.config.to_dict(),
        "step": int(step),
        "optimizer": opt_meta,
        "rng_state": rng_state,
        "tensors": [name for name, _ in entries],
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(hbytes)))
    buf.write(hbytes)
    for _, arr in entries:
        buf.write(gptt.write_gptt_bytes(arr))
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """Read a GPTC container; returns (network, extras).

    extras holds "step", "rng_state" and, when saved, "optimizer" with
    fully materialised moment tensors.
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
    config = NetworkConfig.from_dict(header["config"])
    net = build(config, np.random.default_rng(0))

    tensors: dict[str, np.ndarray] = {}
    offset = 16 + hlen
    for name in header["tensors"]:
        if offset + 6 > len(raw):
            raise DataError(f"{path}: truncated tensor {name!r} at byte {offset}")
        rank = raw[offset + 5]
        if offset + 6 + 4 * rank > len(raw):
            raise DataError(f"{path}: truncated tensor {name!r} header at byte {offset}")
        count = 1
        dims = struct.unpack_from(f"<{rank}I", raw, offset + 6)
        for d in dims:
            count *= d
        end = offset + 6 + 4 * rank + 4 * count
        if end > len(raw):
            raise DataError(f"{path}: truncated tensor {name!r} payload at byte {offset}")
        tensors[name] = gptt.read_gptt_bytes(raw[offset:end], source=f"{path}:{name}")
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes at {offset}")

    def tensor(name: str) -> np.ndarray:
        if name not in tensors:
            raise DataError(f"{path}: missing tensor {name!r}")
        return tensors[name]

    params = net.named_parameters()
    for name, v in params.items():
        arr = tensor(f"param/{name}")
        if arr.shape != v.data.shape:
            raise DataError(
                f"{path}: parameter {name!r} has shape {arr.shape}, "
                f"expected {v.data.shape}"
            )
        v.data = arr.astype(v.data.dtype)
    for name, st in net.named_state().items():
        st.mean = tensor(f"state/{name}.mean").astype(st.mean.dtype)
        st.var = tensor(f"state/{name}.var").astype(st.var.dtype)

    extras: dict = {"step": header.get("step", 0),
                    "rng_state": header.get("rng_state")}
    if header.get("optimizer") is not None:
        extras["optimizer"] = {
            "t": header["optimizer"]["t"],
            "m": {k: tensor(f"adam.m/{k}") for k in params},
            "v": {k: tensor(f"adam.v/{k}") for k in params},
        }
    return net, extras
