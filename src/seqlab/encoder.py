"""Windowed bidirectional LSTM producing the dense emission features.

Position ``i`` consumes the concatenation of the (dropout-masked) input
vectors at ``i-2 .. i+2``, zero-padded beyond the sentence.  Both
directions are one left-to-right scan: the backward direction is that scan
run over the reversed sentence, with its outputs reversed back.  Its window
at ``i`` therefore reads the five blocks in the order ``i+2 .. i-2``, which
makes the encoder exactly symmetric: reversing the input sequence and
swapping the direction parameter blocks reverses and block-swaps the output
sequence.  Each scan builds its zero-padded ``(n, 5d)`` window matrix once,
from five shifted slices.

The cell is the standard LSTM: sigmoid input/forget/output gates, tanh
candidate, no peepholes, state clipping disabled.  Gate pre-activations are
``W @ window + U @ h_prev + b`` with rows packed [input; forget; output;
candidate].  Dropout is inverted (masks scaled by 1/(1-p) at train time),
so inference is a plain unmasked pass.

``backward`` returns exact analytic gradients for every parameter and every
input vector, and back through the dropout masks.  Its step loop carries
only the recurrence and collects the gate pre-activation gradients
``D_pre (n, 4H)``; the weight gradients are then whole-sentence products
(``D_pre.T @ windows``, ``D_pre.T @ H_prev``), and ``D_pre @ W`` is summed
back through the same five slices, which accumulates the window sharing
(one input feeds up to five windows).  All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

WINDOW = 5
_HALF = WINDOW // 2


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class BiLSTMParams:
    """One weight/bias set per direction; ``w_*`` act on the 5-block window."""

    input_dim: int
    hidden: int
    w_fwd: np.ndarray
    u_fwd: np.ndarray
    b_fwd: np.ndarray
    w_bwd: np.ndarray
    u_bwd: np.ndarray
    b_bwd: np.ndarray

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng) -> "BiLSTMParams":
        """Uniform [-r, r] with r = sqrt(6 / (fan_in + fan_out)); forget bias 1."""
        win = WINDOW * input_dim

        def mat(rows, cols):
            r = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-r, r, size=(rows, cols))

        def bias():
            b = np.zeros(4 * hidden)
            b[hidden : 2 * hidden] = 1.0
            return b

        return cls(
            input_dim=input_dim,
            hidden=hidden,
            w_fwd=mat(4 * hidden, win),
            u_fwd=mat(4 * hidden, hidden),
            b_fwd=bias(),
            w_bwd=mat(4 * hidden, win),
            u_bwd=mat(4 * hidden, hidden),
            b_bwd=bias(),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "w_fwd": self.w_fwd,
            "u_fwd": self.u_fwd,
            "b_fwd": self.b_fwd,
            "w_bwd": self.w_bwd,
            "u_bwd": self.u_bwd,
            "b_bwd": self.b_bwd,
        }

    @staticmethod
    def shapes(input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
        """The shape of each array in ``arrays()``, in the same order."""
        h, win = hidden, WINDOW * input_dim
        return {
            "w_fwd": (4 * h, win),
            "u_fwd": (4 * h, h),
            "b_fwd": (4 * h,),
            "w_bwd": (4 * h, win),
            "u_bwd": (4 * h, h),
            "b_bwd": (4 * h,),
        }

    @classmethod
    def zeros(cls, input_dim: int, hidden: int) -> "BiLSTMParams":
        arrays = {k: np.zeros(shape) for k, shape in cls.shapes(input_dim, hidden).items()}
        return cls(input_dim=input_dim, hidden=hidden, **arrays)

    def check(self):
        expect = self.shapes(self.input_dim, self.hidden)
        for name, arr in self.arrays().items():
            if arr.shape != expect[name]:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expect[name]}")


class _DirectionCache(NamedTuple):
    """One direction's scan; row ``i`` belongs to sentence position ``i``."""

    windows: np.ndarray  # (n, 5d) the window each step consumed
    gates: np.ndarray  # (n, 4, H) post-activation i, f, o, g
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray

    def reversed(self) -> "_DirectionCache":
        return _DirectionCache(*(a[::-1] for a in self))


@dataclass
class EncoderOutput:
    h: np.ndarray  # (n, 2H), forward block then backward block
    train: bool
    dropout_p: float
    masks: np.ndarray | None  # (n, input_dim) 0/1, train mode only
    inputs: np.ndarray  # composed inputs as given (pre-dropout)
    dropped: np.ndarray  # inputs after the inverted-dropout scaling
    fwd: _DirectionCache
    bwd: _DirectionCache


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


def _scan(w, u, b, x) -> _DirectionCache:
    """One left-to-right LSTM pass over the windows of ``x``."""
    n = x.shape[0]
    H = u.shape[1]
    windows = _windows(x)
    gates = np.empty((n, 4, H))
    c = np.empty((n, H))
    tanh_c = np.empty((n, H))
    h = np.empty((n, H))
    h_prev = c_prev = np.zeros(H)
    for i in range(n):
        pre = w @ windows[i] + u @ h_prev + b
        ig, fg, og = gates[i, :3] = _sigmoid(pre[: 3 * H]).reshape(3, H)
        gg = gates[i, 3] = np.tanh(pre[3 * H :])
        c_prev = c[i] = fg * c_prev + ig * gg
        tanh_c[i] = np.tanh(c_prev)
        h_prev = h[i] = og * tanh_c[i]
    return _DirectionCache(windows, gates, c, tanh_c, h)


def _backprop_scan(w, u, scan: _DirectionCache, d_h):
    """BPTT through ``_scan``; returns ``(dW, dU, db, d_x)`` for its input ``x``."""
    n, H = scan.h.shape
    c_prev = np.vstack([np.zeros(H), scan.c[:-1]])
    d_pre = np.empty((n, 4 * H))
    dh_next = dc_next = np.zeros(H)
    for i in range(n - 1, -1, -1):
        ig, fg, og, gg = scan.gates[i]
        tc = scan.tanh_c[i]
        dh = d_h[i] + dh_next
        dc = dh * og * (1.0 - tc * tc) + dc_next
        row = d_pre[i]
        row[:H] = dc * gg * ig * (1.0 - ig)
        row[H : 2 * H] = dc * c_prev[i] * fg * (1.0 - fg)
        row[2 * H : 3 * H] = dh * tc * og * (1.0 - og)
        row[3 * H :] = dc * ig * (1.0 - gg * gg)
        dh_next = u.T @ row
        dc_next = dc * fg
    dW = d_pre.T @ scan.windows
    dU = d_pre[1:].T @ scan.h[:-1]  # h_prev is zero at the first step
    db = d_pre.sum(axis=0)
    return dW, dU, db, _unwindow(d_pre @ w, w.shape[1] // WINDOW)


def encode(
    params: BiLSTMParams, inputs, train: bool, rng=None, masks=None, dropout_p: float = 0.25
) -> EncoderOutput:
    """Run the windowed BiLSTM over composed input vectors.

    ``inputs`` is (n, input_dim).  In train mode a dropout mask is drawn from
    ``rng`` (or taken from ``masks`` when given, which keeps gradient checks
    deterministic); inference applies no mask and no rescaling.
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
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability {p} outside [0, 1)")
        if masks is None:
            if rng is None:
                raise ValueError("train-mode encode needs an rng or explicit masks")
            masks = (rng.random(inputs.shape) >= p).astype(np.float64)
        else:
            masks = np.asarray(masks, dtype=np.float64)
            if masks.shape != inputs.shape:
                raise ValueError("mask shape does not match inputs")
        dropped = inputs * masks / (1.0 - p)
    else:
        p = 0.0
        masks = None
        dropped = inputs

    fwd = _scan(params.w_fwd, params.u_fwd, params.b_fwd, dropped)
    bwd = _scan(params.w_bwd, params.u_bwd, params.b_bwd, dropped[::-1]).reversed()
    h = np.concatenate([fwd.h, bwd.h], axis=1)
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("encoder produced non-finite outputs")
    return EncoderOutput(
        h=h, train=train, dropout_p=p, masks=masks, inputs=inputs, dropped=dropped, fwd=fwd, bwd=bwd
    )


def backward(
    params: BiLSTMParams, output: EncoderOutput, d_h
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of a scalar loss given d(loss)/d(h).

    Returns the parameter gradients, keyed like ``BiLSTMParams.arrays()``,
    and d(loss)/d(inputs), where the input gradient already includes the
    window sharing and the dropout masks.
    """
    if not output.train:
        raise ValueError("backward requires an encode pass run in train mode")
    d_h = np.asarray(d_h, dtype=np.float64)
    if d_h.shape != output.h.shape:
        raise ValueError(f"upstream gradient shape {d_h.shape} != {output.h.shape}")
    H = params.hidden
    dWf, dUf, dbf, d_fwd = _backprop_scan(params.w_fwd, params.u_fwd, output.fwd, d_h[:, :H])
    dWb, dUb, dbb, d_bwd = _backprop_scan(
        params.w_bwd, params.u_bwd, output.bwd.reversed(), d_h[::-1, H:]
    )
    d_dropped = d_fwd + d_bwd[::-1]
    if output.masks is not None:
        d_inputs = d_dropped * output.masks / (1.0 - output.dropout_p)
    else:
        d_inputs = d_dropped
    grads = {"w_fwd": dWf, "u_fwd": dUf, "b_fwd": dbf, "w_bwd": dWb, "u_bwd": dUb, "b_bwd": dbb}
    return grads, d_inputs
