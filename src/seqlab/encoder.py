"""Windowed bidirectional LSTM producing the dense emission features.

Position ``i`` consumes the concatenation of the (dropout-masked) input
vectors at ``i-2 .. i+2``, zero-padded beyond the sentence, and the two
directions run over those windows left-to-right and right-to-left.  Each
direction sees the window in its own scan order (the backward direction
reads the five blocks reversed), which makes the encoder exactly symmetric:
reversing the input sequence and swapping the direction parameter blocks
reverses and block-swaps the output sequence.

The cell is the standard LSTM: sigmoid input/forget/output gates, tanh
candidate, no peepholes, state clipping disabled.  Gate pre-activations are
``W @ window + U @ h_prev + b`` with rows packed [input; forget; output;
candidate].  Dropout is inverted (masks scaled by 1/(1-p) at train time),
so inference is a plain unmasked pass.

``backward`` returns exact analytic gradients for every parameter and every
input vector, accumulating through the window sharing (one input feeds up
to five windows) and back through the dropout masks.  All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")


class _DirectionCache:
    __slots__ = ("windows", "gates", "c", "tanh_c", "h")

    def __init__(self, n, hidden, win_dim):
        self.windows = np.zeros((n, win_dim))
        self.gates = np.zeros((n, 4, hidden))  # post-activation i, f, o, g
        self.c = np.zeros((n, hidden))
        self.tanh_c = np.zeros((n, hidden))
        self.h = np.zeros((n, hidden))


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


def _window_at(dropped, i, order):
    n, d = dropped.shape
    parts = []
    for off in order:
        j = i + off
        if 0 <= j < n:
            parts.append(dropped[j])
        else:
            parts.append(np.zeros(d))
    return np.concatenate(parts)


def _run_direction(w, u, b, dropped, positions, order, hidden):
    n, d = dropped.shape
    cache = _DirectionCache(n, hidden, WINDOW * d)
    h_prev = np.zeros(hidden)
    c_prev = np.zeros(hidden)
    H = hidden
    for i in positions:
        win = _window_at(dropped, i, order)
        pre = w @ win + u @ h_prev + b
        ig = _sigmoid(pre[:H])
        fg = _sigmoid(pre[H : 2 * H])
        og = _sigmoid(pre[2 * H : 3 * H])
        gg = np.tanh(pre[3 * H :])
        c = fg * c_prev + ig * gg
        tc = np.tanh(c)
        h = og * tc
        cache.windows[i] = win
        cache.gates[i, 0] = ig
        cache.gates[i, 1] = fg
        cache.gates[i, 2] = og
        cache.gates[i, 3] = gg
        cache.c[i] = c
        cache.tanh_c[i] = tc
        cache.h[i] = h
        h_prev, c_prev = h, c
    return cache


def encode(
    params: BiLSTMParams, inputs, train: bool, rng=None, masks=None, dropout_p: float = 0.25
) -> EncoderOutput:
    """Run the windowed BiLSTM over composed input vectors.

    ``inputs`` is (n, input_dim).  In train mode a dropout mask is drawn from
    ``rng`` (or taken from ``masks`` when given, which keeps gradient checks
    deterministic); inference applies no mask and no rescaling.
    """
    params.check()
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise ValueError("inputs must be a non-empty (n, input_dim) array")
    if inputs.shape[1] != params.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[1]} does not match parameters ({params.input_dim})"
        )
    n = inputs.shape[0]

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

    fwd_order = tuple(range(-_HALF, _HALF + 1))
    bwd_order = tuple(reversed(fwd_order))
    fwd = _run_direction(
        params.w_fwd, params.u_fwd, params.b_fwd, dropped, range(n), fwd_order, params.hidden
    )
    bwd = _run_direction(
        params.w_bwd, params.u_bwd, params.b_bwd, dropped, range(n - 1, -1, -1), bwd_order, params.hidden
    )
    h = np.concatenate([fwd.h, bwd.h], axis=1)
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("encoder produced non-finite outputs")
    return EncoderOutput(
        h=h, train=train, dropout_p=p, masks=masks, inputs=inputs, dropped=dropped, fwd=fwd, bwd=bwd
    )


def _backprop_direction(w, u, cache, d_h, positions, order, d_dropped):
    """Reverse-order BPTT through one direction; returns (dW, dU, db)."""
    n, win_dim = cache.windows.shape
    H = cache.h.shape[1]
    dW = np.zeros_like(w)
    dU = np.zeros_like(u)
    db = np.zeros(4 * H)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    seq = list(positions)
    for step in range(len(seq) - 1, -1, -1):
        i = seq[step]
        prev = seq[step - 1] if step > 0 else None
        ig, fg, og, gg = cache.gates[i]
        tc = cache.tanh_c[i]
        dh = d_h[i] + dh_next
        do = dh * tc
        dc = dh * og * (1.0 - tc * tc) + dc_next
        c_prev = cache.c[prev] if prev is not None else np.zeros(H)
        di = dc * gg
        dg = dc * ig
        df = dc * c_prev
        dc_next = dc * fg
        d_pre = np.concatenate(
            [
                di * ig * (1.0 - ig),
                df * fg * (1.0 - fg),
                do * og * (1.0 - og),
                dg * (1.0 - gg * gg),
            ]
        )
        h_prev = cache.h[prev] if prev is not None else np.zeros(H)
        dW += np.outer(d_pre, cache.windows[i])
        dU += np.outer(d_pre, h_prev)
        db += d_pre
        dh_next = u.T @ d_pre
        d_win = w.T @ d_pre
        d = d_dropped.shape[1]
        for slot, off in enumerate(order):
            j = i + off
            if 0 <= j < d_dropped.shape[0]:
                d_dropped[j] += d_win[slot * d : (slot + 1) * d]
    return dW, dU, db


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
    n = output.h.shape[0]
    H = params.hidden
    fwd_order = tuple(range(-_HALF, _HALF + 1))
    bwd_order = tuple(reversed(fwd_order))
    d_dropped = np.zeros_like(output.dropped)
    dWf, dUf, dbf = _backprop_direction(
        params.w_fwd, params.u_fwd, output.fwd, d_h[:, :H], range(n), fwd_order, d_dropped
    )
    dWb, dUb, dbb = _backprop_direction(
        params.w_bwd, params.u_bwd, output.bwd, d_h[:, H:], range(n - 1, -1, -1), bwd_order, d_dropped
    )
    if output.masks is not None:
        d_inputs = d_dropped * output.masks / (1.0 - output.dropout_p)
    else:
        d_inputs = d_dropped
    grads = {"w_fwd": dWf, "u_fwd": dUf, "b_fwd": dbf, "w_bwd": dWb, "u_bwd": dUb, "b_bwd": dbb}
    return grads, d_inputs
