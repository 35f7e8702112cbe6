"""Finite-difference verification suite behind `vstain gradcheck`.

Every differentiable op is checked at 64-bit against central
differences on small random shapes, then a full transformer layer and a
shrunken end-to-end network are checked the same way. Tolerances: 1e-4
per op and per layer, 1e-3 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dense_block import dense_forward, make_dense_block
from .gpt_layer import GptVariant, gpt_forward, make_gpt_layer
from .network import NetworkConfig, build, forward
from .training import masked_cross_entropy

OP_TOL = 1e-4
END_TO_END_TOL = 1e-3


@dataclass
class CheckRow:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _away_from_kinks(rng: np.random.Generator, shape, margin: float = 0.05) -> np.ndarray:
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < margin, margin + np.abs(x), x)


def run_suite(seed: int = 0) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows: list[CheckRow] = []

    def check(name, f, x, tol=OP_TOL):
        rows.append(CheckRow(name, ag.finite_diff_check(f, x), tol))

    def check_param(name, loss_fn, param, tol=OP_TOL):
        rows.append(CheckRow(name, ag.finite_diff_check_param(loss_fn, param), tol))

    # matmul, both operands
    a0 = rng.normal(size=(2, 3, 4))
    b0 = rng.normal(size=(2, 4, 5))
    p = rng.normal(size=(2, 3, 5))
    check("matmul/lhs", lambda v: ag.dot_sum(ag.matmul(v, ag.var(b0)), p), a0)
    check("matmul/rhs", lambda v: ag.dot_sum(ag.matmul(ag.var(a0), v), p), b0)

    # column softmax
    p = rng.normal(size=(5, 4))
    check("col_softmax", lambda v: ag.dot_sum(ag.col_softmax(v), p), rng.normal(size=(5, 4)))

    # fused attention, batch 2, 6 keys, its 10 queries in blocks of 4, 4 and 2;
    # its own generator keeps every other check's inputs independent of it
    ra = np.random.default_rng([seed, 1])
    qa, ka, va = (ra.normal(size=(2, 2, 5, 3)), ra.normal(size=(2, 2, 3, 3)),
                  ra.normal(size=(2, 2, 3, 2)))
    p = ra.normal(size=(2, 2, 5, 2))
    block_scores = ag.ATTENTION_BLOCK_SCORES
    ag.ATTENTION_BLOCK_SCORES = 4 * 6
    try:
        check("attention/q",
              lambda t: ag.dot_sum(ag.attention(t, ag.var(ka), ag.var(va)), p), qa)
        check("attention/k",
              lambda t: ag.dot_sum(ag.attention(ag.var(qa), t, ag.var(va)), p), ka)
        check("attention/v",
              lambda t: ag.dot_sum(ag.attention(ag.var(qa), ag.var(ka), t), p), va)
    finally:
        ag.ATTENTION_BLOCK_SCORES = block_scores

    # convolutions (input, weight and bias paths)
    w = rng.normal(size=(3, 3, 3, 4))
    x0 = rng.normal(size=(2, 5, 5, 3))
    b = rng.normal(size=4)
    for stride, oh in ((1, 5), (2, 3)):
        p = rng.normal(size=(2, oh, oh, 4))
        check(f"conv2d/s{stride}/input",
              lambda v, s=stride, pp=p: ag.dot_sum(ag.conv2d(v, ag.var(w), ag.var(b), s), pp), x0)
        check(f"conv2d/s{stride}/weight",
              lambda v, s=stride, pp=p: ag.dot_sum(ag.conv2d(ag.var(x0), v, ag.var(b), s), pp), w)
        check(f"conv2d/s{stride}/bias",
              lambda v, s=stride, pp=p: ag.dot_sum(ag.conv2d(ag.var(x0), ag.var(w), v, s), pp), b)

    p = rng.normal(size=(2, 10, 10, 4))
    check("deconv2d/input",
          lambda v: ag.dot_sum(ag.deconv2d(v, ag.var(w), ag.var(b)), p), x0)
    check("deconv2d/weight",
          lambda v: ag.dot_sum(ag.deconv2d(ag.var(x0), v, ag.var(b)), p), w)
    check("deconv2d/bias",
          lambda v: ag.dot_sum(ag.deconv2d(ag.var(x0), ag.var(w), v), p), b)

    # bilinear resize, up and down
    p = rng.normal(size=(1, 6, 6, 2))
    check("resize/up", lambda v: ag.dot_sum(ag.resize_bilinear(v, 6, 6), p),
          rng.normal(size=(1, 3, 4, 2)))
    p = rng.normal(size=(1, 3, 2, 2))
    check("resize/down", lambda v: ag.dot_sum(ag.resize_bilinear(v, 3, 2), p),
          rng.normal(size=(1, 6, 5, 2)))

    # concat
    other = rng.normal(size=(1, 3, 3, 2))
    p = rng.normal(size=(1, 3, 3, 5))
    check("concat", lambda v: ag.dot_sum(ag.concat_channels([v, ag.var(other)]), p),
          rng.normal(size=(1, 3, 3, 3)))

    # relu (inputs kept away from the kink)
    p = rng.normal(size=(4, 4))
    check("relu", lambda v: ag.dot_sum(ag.relu(v), p), _away_from_kinks(rng, (4, 4)))

    # batch norm, train and eval modes
    gamma = ag.var(rng.normal(size=3) + 1.5, requires_grad=True)
    beta = ag.var(rng.normal(size=3), requires_grad=True)
    xb = rng.normal(size=(2, 4, 4, 3))
    p = rng.normal(size=(2, 4, 4, 3))
    for mode in ("train", "eval"):
        check(f"batch_norm/{mode}/input",
              lambda v, m=mode: ag.dot_sum(
                  ag.batch_norm(v, gamma, beta, ag.BnState.create(3, np.float64), m), p),
              xb)
    check("batch_norm/gamma",
          lambda v: ag.dot_sum(
              ag.batch_norm(ag.var(xb), v, beta, ag.BnState.create(3, np.float64), "train"), p),
          np.array(gamma.data))

    # dropout with a pinned mask
    check("dropout", lambda v: ag.dot_sum(ag.dropout(v, 0.5, np.random.default_rng(11)), p), xb)

    # masked cross entropy
    tcount, classes = 2, 5
    targets = rng.integers(0, classes, size=(1, 3, 3, tcount))
    mask = np.array([[True, False]])
    check("cross_entropy",
          lambda v: masked_cross_entropy(v, targets, mask, classes),
          rng.normal(size=(1, 3, 3, tcount * classes)))

    # one full transformer layer per variant, input and generator weight
    for variant in GptVariant:
        layer = make_gpt_layer(rng, 3, variant, dtype=np.float64)
        xg = rng.normal(size=(1, 4, 4, 3))
        oh, ow = {"down": (2, 2), "same": (4, 4), "up": (8, 8)}[variant.value]
        p = rng.normal(size=(1, oh, ow, layer.out_channels))
        check(f"gpt_layer/{variant.value}/input",
              lambda v, ly=layer, pp=p: ag.dot_sum(gpt_forward(v, ly), pp), xg)
        check_param(f"gpt_layer/{variant.value}/gen_w",
                    lambda ly=layer, pp=p, x=xg: ag.dot_sum(gpt_forward(ag.var(x), ly), pp),
                    layer.gen_w)

    # dense block (dropout off so the check is deterministic)
    db = make_dense_block(rng, 3, 2, 2, 4, dropout_rate=0.0, dtype=np.float64)
    xg = rng.normal(size=(1, 4, 4, 3))
    p = rng.normal(size=(1, 4, 4, 4))
    check("dense_block/input",
          lambda v: ag.dot_sum(dense_forward(v, db, "train"), p), xg)

    # end-to-end shrunken network: train mode with per-call pinned dropout
    cfg = NetworkConfig.tiny()
    net = build(cfg, np.random.default_rng(seed + 1), dtype=np.float64)
    params = net.named_parameters()
    xn = rng.normal(size=(1, cfg.patch_size, cfg.patch_size, 3))
    pn = rng.normal(size=(1, cfg.patch_size, cfg.patch_size, cfg.head_channels))

    check("network/input",
          lambda v: ag.dot_sum(
              forward(net, v, mode="train", rng=np.random.default_rng(5)), pn),
          xn, END_TO_END_TOL)

    for pname in ("stem.w", "head.b", "enc1.db.l1.bn.gamma"):
        check_param(
            f"network/{pname}",
            lambda: ag.dot_sum(
                forward(net, ag.var(xn), mode="train", rng=np.random.default_rng(5)), pn),
            params[pname], END_TO_END_TOL)

    return rows


def format_rows(rows: list[CheckRow]) -> str:
    lines = [f"{'check':34s} {'max rel err':>12s} {'tol':>8s}  result"]
    for r in rows:
        lines.append(
            f"{r.name:34s} {r.max_rel_error:12.3e} {r.tolerance:8.0e}  "
            + ("PASS" if r.passed else "FAIL")
        )
    ok = sum(r.passed for r in rows)
    lines.append(f"{ok}/{len(rows)} checks passed")
    return "\n".join(lines)
