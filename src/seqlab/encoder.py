"""Windowed bidirectional LSTM producing the dense emission features.

Position ``i`` consumes the concatenation of the (dropout-masked) input
vectors at ``i-2 .. i+2``, zero-padded beyond the sentence.  The backward
direction is the forward recurrence run over the reversed sentence, with
its outputs reversed back.  Its window at ``i`` therefore reads the five
blocks in the order ``i+2 .. i-2``, which makes the encoder exactly
symmetric: reversing the input sequence and swapping the direction
parameter blocks reverses and block-swaps the output sequence.  Each
direction's zero-padded ``(n, 5d)`` window matrix is built once, from five
shifted slices.

The weights are stored the way the scan reads them: ``W``, ``U`` and ``b``
each hold both directions, forward then backward on the first axis.

One step loop runs both directions.  Before it, each direction's input
terms ``W @ window`` for every position come from one batched matmul, which
numpy runs as one GEMV per position, the same GEMV as ``W @ windows[i]``;
a GEMM ``windows @ W.T`` would round differently.  The loop carries only
the recurrence: the direction is the last axis of the stacked state, so a
step is one batched matmul on the stored ``U`` and one numpy call per
elementwise operation for both directions, each on contiguous state (the
bias is read through a transposed view of ``b``).  Every output is bitwise
that of a plain per-step, per-direction loop.

The cell is the standard LSTM: sigmoid input/forget/output gates, tanh
candidate, no peepholes, state clipping disabled.  Gate pre-activations are
``W @ window + U @ h_prev + b`` with rows packed [input; forget; output;
candidate].  Dropout is inverted (masks scaled by 1/(1-p) at train time),
so inference is a plain unmasked pass.

``backward`` returns exact analytic gradients for every parameter and every
input vector, and back through the dropout masks.  It mirrors the scan:
``encode`` keeps the scan's stacked arrays, in scan order, and one step loop
runs both directions back, the direction again the last axis.  Every factor
that does not depend on the recurrence (``c_prev``, ``1 - tanh(c)^2``,
``1 - gate``, ``1 - g^2``) is computed for all positions before the loop,
so a step is a few elementwise calls on the stacked ``(4, H, 2)`` gate
gradients and one batched matmul on the transpose of ``U``.  The loop
collects the gate pre-activation gradients ``D_pre``; each direction's are
then made contiguous once, and the weight gradients are whole-sentence
products (``D_pre.T @ windows``, ``D_pre.T @ H_prev``), and ``D_pre @ W``
is summed back through the same five slices, which
accumulates the window sharing (one input feeds up to five windows).
Every gradient is bitwise that of a plain per-direction loop.  All math is
float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

WINDOW = 5
_HALF = WINDOW // 2


@dataclass
class BiLSTMParams:
    """Both directions' weights, forward then backward on the first axis:
    ``w`` (2, 4H, 5d) acts on the 5-block window, ``u`` (2, 4H, H) on the
    previous output, and ``b`` is (2, 4H)."""

    input_dim: int
    hidden: int
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @staticmethod
    def _shapes(input_dim: int, hidden: int):
        return (2, 4 * hidden, WINDOW * input_dim), (2, 4 * hidden, hidden), (2, 4 * hidden)

    @classmethod
    def zeros(cls, input_dim: int, hidden: int) -> "BiLSTMParams":
        return cls(input_dim, hidden, *(np.zeros(s) for s in cls._shapes(input_dim, hidden)))

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng) -> "BiLSTMParams":
        """Uniform [-r, r] with r = sqrt(6 / (fan_in + fan_out)); forget bias 1.

        Drawn per direction, ``w`` then ``u``, forward first.
        """
        params = cls.zeros(input_dim, hidden)
        for k in range(2):
            for m in (params.w[k], params.u[k]):
                r = np.sqrt(6.0 / sum(m.shape))
                m[...] = rng.uniform(-r, r, size=m.shape)
        params.b[:, hidden : 2 * hidden] = 1.0
        return params

    def arrays(self) -> dict[str, np.ndarray]:
        """Each direction's ``w``, ``u`` and ``b`` as views into the stored arrays."""
        return {
            f"{name}_{side}": arr[k]
            for k, side in enumerate(("fwd", "bwd"))
            for name, arr in (("w", self.w), ("u", self.u), ("b", self.b))
        }

    def check(self):
        for name, expect in zip("wub", self._shapes(self.input_dim, self.hidden)):
            shape = getattr(self, name).shape
            if shape != expect:
                raise ValueError(f"{name} has shape {shape}, expected {expect}")


class _ScanCache(NamedTuple):
    """``_scan``'s stacked arrays, in scan order, the direction on the last axis.

    Step ``j`` of direction 0 is sentence position ``j``; step ``j`` of
    direction 1 is position ``n - 1 - j``.
    """

    windows: tuple[np.ndarray, np.ndarray]  # each direction's (n, 5d) windows, in scan order
    gates: np.ndarray  # (n, 4, H, 2) post-activation i, f, o, g
    c: np.ndarray  # (n, H, 2)
    tanh_c: np.ndarray  # (n, H, 2)
    h: np.ndarray  # (n, H, 2)


@dataclass
class EncoderOutput:
    h: np.ndarray  # (n, 2H), forward block then backward block
    dropout_p: float
    masks: np.ndarray | None  # (n, input_dim) 0/1, train mode only
    scan: _ScanCache


def _windows(x):
    """The ``(n, 5d)`` window matrix: row i is ``x[i-2] .. x[i+2]``, zero beyond the ends."""
    n, d = x.shape
    padded = np.zeros((n + WINDOW - 1, d))
    padded[_HALF : _HALF + n] = x
    return np.concatenate([padded[s : s + n] for s in range(WINDOW)], axis=1)


def _unwindow(d_windows, d):
    """Adjoint of ``_windows``: sum every slot's gradient onto its input."""
    n = d_windows.shape[0]
    padded = np.zeros((n + WINDOW - 1, d))
    for s in range(WINDOW):
        padded[s : s + n] += d_windows[:, s * d : (s + 1) * d]
    return padded[_HALF : _HALF + n]


def _scan(params: BiLSTMParams, x) -> _ScanCache:
    """Both directions' LSTM passes, the backward one over ``x[::-1]``, in one step loop.

    The sigmoid is ``1 / (1 + exp(-x))``, in that operation order.
    """
    n = x.shape[0]
    H = params.hidden
    windows = (_windows(x), _windows(x[::-1]))
    xw = np.empty((n, 4, H, 2))
    for k in range(2):
        np.matmul(params.w[k], windows[k][:, :, None], xw.reshape(n, 4 * H, 2)[:, :, k, None])
    b = params.b.T.reshape(4, H, 2)
    gates = np.empty((n, 4, H, 2))
    c = np.empty((n, H, 2))
    tanh_c = np.empty((n, H, 2))
    h = np.empty((n, H, 2))
    pre = np.empty((4, H, 2))
    ifo = pre[:3]
    ig_gg = np.empty((H, 2))
    # the (2, H, 1) and (2, 4H, 1) views the batched matmul reads and writes
    h_cols = h.transpose(0, 2, 1)[:, :, :, None]
    pre_cols = pre.reshape(4 * H, 2).T[:, :, None]
    h_prev, c_prev = np.zeros((2, H, 1)), np.zeros((H, 2))
    for i in range(n):
        np.matmul(params.u, h_prev, pre_cols)
        np.add(xw[i], pre, pre)
        np.add(pre, b, pre)
        ig, fg, og, gg = step = gates[i]
        np.negative(ifo, ifo)
        np.exp(ifo, ifo)
        np.add(ifo, 1.0, ifo)
        np.divide(1.0, ifo, step[:3])
        np.tanh(pre[3], gg)
        c_prev = np.multiply(fg, c_prev, c[i])
        np.multiply(ig, gg, ig_gg)
        np.add(c_prev, ig_gg, c_prev)
        np.multiply(og, np.tanh(c_prev, tanh_c[i]), h[i])
        h_prev = h_cols[i]
    return _ScanCache(windows, gates, c, tanh_c, h)


def _backprop(params: BiLSTMParams, scan: _ScanCache, d_h):
    """BPTT through both directions of ``_scan`` in one step loop.

    ``d_h`` is ``(n, H, 2)`` in scan order.  Returns the parameter gradients
    and each direction's gradient for its scan-order input.
    """
    n, _, H, _ = scan.gates.shape
    gates, tanh_c = scan.gates, scan.tanh_c
    # gate k's pre-activation gradient is ((lead * p1) * p2) * p3, where lead
    # is dc for the i, f and g gates and dh for the o gate; p3 is 1.0 for g
    p1 = np.empty((n, 4, H, 2))
    p1[:, 0] = gates[:, 3]
    p1[0, 1] = 0.0  # c_prev
    p1[1:, 1] = scan.c[:-1]
    p1[:, 2] = tanh_c
    p1[:, 3] = gates[:, 0]
    p2 = np.empty((n, 4, H, 2))
    p2[:, :3] = gates[:, :3]
    np.subtract(1.0, gates[:, 3] * gates[:, 3], p2[:, 3])
    p3 = np.empty((n, 4, H, 2))
    np.subtract(1.0, gates[:, :3], p3[:, :3])
    p3[:, 3] = 1.0
    dtanh_c = 1.0 - tanh_c * tanh_c
    fg, og = gates[:, 1], gates[:, 2]
    u_t = params.u.transpose(0, 2, 1)
    d_pre = np.empty((n, 4, H, 2))
    lead = np.empty((4, H, 2))
    dc, dh = lead[0], lead[2]
    dh_next, dc_next = np.zeros((H, 2)), np.zeros((H, 2))
    # the (2, 4H, 1) and (2, H, 1) views the batched matmul reads and writes
    row_cols = d_pre.reshape(n, 4 * H, 2).transpose(0, 2, 1)[:, :, :, None]
    dh_next_cols = dh_next.T[:, :, None]
    for i in range(n - 1, -1, -1):
        np.add(d_h[i], dh_next, dh)
        np.multiply(dh, og[i], dc)
        np.multiply(dc, dtanh_c[i], dc)
        np.add(dc, dc_next, dc)
        lead[1::2] = dc
        row = d_pre[i]
        np.multiply(lead, p1[i], row)
        np.multiply(row, p2[i], row)
        np.multiply(row, p3[i], row)
        np.matmul(u_t, row_cols[i], dh_next_cols)
        np.multiply(dc, fg[i], dc_next)
    # contiguous operands: strided ones would leave BLAS and round differently
    grads, d_x = {}, []
    for k, side in enumerate(("fwd", "bwd")):
        d_pre_k = np.ascontiguousarray(d_pre[..., k]).reshape(n, 4 * H)
        h_k = np.ascontiguousarray(scan.h[..., k])
        grads[f"w_{side}"] = d_pre_k.T @ scan.windows[k]
        grads[f"u_{side}"] = d_pre_k[1:].T @ h_k[:-1]  # h_prev is zero at the first step
        grads[f"b_{side}"] = d_pre_k.sum(axis=0)
        d_x.append(_unwindow(d_pre_k @ params.w[k], params.input_dim))
    return grads, d_x


def encode(params: BiLSTMParams, inputs, train: bool, rng=None, dropout_p=None) -> EncoderOutput:
    """Run the windowed BiLSTM over composed input vectors.

    ``inputs`` is (n, input_dim).  Train mode needs both ``rng`` and
    ``dropout_p``: each input cell is dropped with probability ``dropout_p``
    by a mask drawn from ``rng`` (a freshly seeded one keeps gradient checks
    deterministic).  Inference applies no mask and no rescaling.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise ValueError("inputs must be a non-empty (n, input_dim) array")
    if inputs.shape[1] != params.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[1]} does not match parameters ({params.input_dim})"
        )

    if train:
        p = dropout_p
        if rng is None or p is None:
            raise ValueError("train-mode encode needs an rng and a dropout probability")
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability {p} outside [0, 1)")
        masks = (rng.random(inputs.shape) >= p).astype(np.float64)
        dropped = inputs * masks / (1.0 - p)
    else:
        p = 0.0
        masks = None
        dropped = inputs

    scan = _scan(params, dropped)
    h = np.concatenate([scan.h[:, :, 0], scan.h[::-1, :, 1]], axis=1)
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("encoder produced non-finite outputs")
    return EncoderOutput(h=h, dropout_p=p, masks=masks, scan=scan)


def backward(
    params: BiLSTMParams, output: EncoderOutput, d_h
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of a scalar loss given d(loss)/d(h).

    Returns the parameter gradients, keyed like ``BiLSTMParams.arrays()``,
    and d(loss)/d(inputs), where the input gradient already includes the
    window sharing and the dropout masks.
    """
    if output.masks is None:
        raise ValueError("backward requires an encode pass run in train mode")
    d_h = np.asarray(d_h, dtype=np.float64)
    if d_h.shape != output.h.shape:
        raise ValueError(f"upstream gradient shape {d_h.shape} != {output.h.shape}")
    H = params.hidden
    grads, (d_fwd, d_bwd) = _backprop(
        params, output.scan, np.stack([d_h[:, :H], d_h[::-1, H:]], axis=-1)
    )
    d_dropped = d_fwd + d_bwd[::-1]
    return grads, d_dropped * output.masks / (1.0 - output.dropout_p)
