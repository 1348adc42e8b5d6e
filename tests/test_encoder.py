import numpy as np
import pytest

from seqlab.encoder import WINDOW, BiLSTMParams, backward, encode


def reference_gates(w, u, b, window, h_prev):
    """Straight-line gate activations ``(i, f, o, g)`` of one LSTM step."""
    hidden = h_prev.shape[0]
    pre = w @ window + u @ h_prev + b
    i = 1.0 / (1.0 + np.exp(-pre[0 * hidden : 1 * hidden]))
    f = 1.0 / (1.0 + np.exp(-pre[1 * hidden : 2 * hidden]))
    o = 1.0 / (1.0 + np.exp(-pre[2 * hidden : 3 * hidden]))
    g = np.tanh(pre[3 * hidden : 4 * hidden])
    return i, f, o, g


def reference_lstm_step(w, u, b, window, h_prev, c_prev):
    """Straight-line single LSTM step, independent of the encoder code."""
    i, f, o, g = reference_gates(w, u, b, window, h_prev)
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def fd_window(inputs, i, offsets):
    n, d = inputs.shape
    parts = []
    for off in offsets:
        j = i + off
        parts.append(inputs[j] if 0 <= j < n else np.zeros(d))
    return np.concatenate(parts)


def reference_bptt(w, u, b, inputs, positions, offsets, d_h):
    """Straight-line per-step BPTT for one direction, independent of the encoder code.

    Scans ``positions`` in order, reading each window in ``offsets`` order,
    then walks the steps back, accumulating every product step by step.
    Returns ``(dW, dU, db, d_inputs)``.
    """
    n, d = inputs.shape
    hidden = u.shape[1]
    steps = []
    h = c = np.zeros(hidden)
    for i in positions:
        x = fd_window(inputs, i, offsets)
        pre = w @ x + u @ h + b
        ig = 1.0 / (1.0 + np.exp(-pre[0 * hidden : 1 * hidden]))
        fg = 1.0 / (1.0 + np.exp(-pre[1 * hidden : 2 * hidden]))
        og = 1.0 / (1.0 + np.exp(-pre[2 * hidden : 3 * hidden]))
        gg = np.tanh(pre[3 * hidden : 4 * hidden])
        c_new = fg * c + ig * gg
        steps.append((i, x, h, c, ig, fg, og, gg, np.tanh(c_new)))
        h, c = og * np.tanh(c_new), c_new
    dW, dU, db = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)
    d_inputs = np.zeros_like(inputs)
    dh_next = dc_next = np.zeros(hidden)
    for i, x, h_prev, c_prev, ig, fg, og, gg, tc in reversed(steps):
        dh = d_h[i] + dh_next
        dc = dh * og * (1.0 - tc**2) + dc_next
        d_pre = np.concatenate(
            [
                dc * gg * ig * (1.0 - ig),
                dc * c_prev * fg * (1.0 - fg),
                dh * tc * og * (1.0 - og),
                dc * ig * (1.0 - gg**2),
            ]
        )
        dW += np.outer(d_pre, x)
        dU += np.outer(d_pre, h_prev)
        db += d_pre
        dx = w.T @ d_pre
        for slot, off in enumerate(offsets):
            if 0 <= i + off < n:
                d_inputs[i + off] += dx[slot * d : (slot + 1) * d]
        dh_next = u.T @ d_pre
        dc_next = dc * fg
    return dW, dU, db, d_inputs


def per_direction_backward(params, out, d_h):
    """``backward`` as one BPTT step loop per direction, on contiguous copies of the cache.

    The gradients are ``(dW, dU, db)`` per direction and d(loss)/d(inputs);
    every operation is in the order of the stacked loop it is checked against.
    """
    n, d = out.dropped.shape
    H = params.hidden
    grads, d_x = [], []
    directions = (
        (params.w_fwd, params.u_fwd, d_h[:, :H]),
        (params.w_bwd, params.u_bwd, d_h[::-1, H:]),
    )
    scan = out.scan
    for k, (w, u, d_h_k) in enumerate(directions):
        gates, c, tanh_c, h = (
            np.ascontiguousarray(a[..., k]) for a in (scan.gates, scan.c, scan.tanh_c, scan.h)
        )
        c_prev = np.vstack([np.zeros(H), c[:-1]])
        d_pre = np.empty((n, 4 * H))
        dh_next = dc_next = np.zeros(H)
        for i in range(n - 1, -1, -1):
            ig, fg, og, gg = gates[i]
            tc = tanh_c[i]
            dh = d_h_k[i] + dh_next
            dc = dh * og * (1.0 - tc * tc) + dc_next
            row = d_pre[i]
            row[:H] = dc * gg * ig * (1.0 - ig)
            row[H : 2 * H] = dc * c_prev[i] * fg * (1.0 - fg)
            row[2 * H : 3 * H] = dh * tc * og * (1.0 - og)
            row[3 * H :] = dc * ig * (1.0 - gg * gg)
            dh_next = u.T @ row
            dc_next = dc * fg
        grads += [d_pre.T @ scan.windows[k], d_pre[1:].T @ h[:-1], d_pre.sum(axis=0)]
        d_windows = d_pre @ w
        padded = np.zeros((n + WINDOW - 1, d))
        for slot in range(WINDOW):
            padded[slot : slot + n] += d_windows[:, slot * d : (slot + 1) * d]
        d_x.append(padded[WINDOW // 2 : WINDOW // 2 + n])
    names = ("w_fwd", "u_fwd", "b_fwd", "w_bwd", "u_bwd", "b_bwd")
    d_inputs = (d_x[0] + d_x[1][::-1]) * out.masks / (1.0 - out.dropout_p)
    return dict(zip(names, grads)), d_inputs


class TestForward:
    def test_single_token_output_shape(self):
        rng = np.random.default_rng(0)
        params = BiLSTMParams.init(3, 4, rng)
        out = encode(params, rng.normal(size=(1, 3)), train=False)
        assert out.h.shape == (1, 8)

    def test_zero_params_fixed_point(self):
        params = BiLSTMParams(
            input_dim=2,
            hidden=3,
            w_fwd=np.zeros((12, 10)),
            u_fwd=np.zeros((12, 3)),
            b_fwd=np.zeros(12),
            w_bwd=np.zeros((12, 10)),
            u_bwd=np.zeros((12, 3)),
            b_bwd=np.zeros(12),
        )
        out = encode(params, np.ones((4, 2)), train=False)
        np.testing.assert_array_equal(out.h, np.zeros((4, 6)))

    def test_forward_block_matches_reference_steps(self):
        rng = np.random.default_rng(5)
        d, H = 2, 2
        params = BiLSTMParams.init(d, H, rng)
        inputs = rng.normal(size=(2, d))
        out = encode(params, inputs, train=False)
        h = np.zeros(H)
        c = np.zeros(H)
        offsets = (-2, -1, 0, 1, 2)
        for i in range(2):
            h, c = reference_lstm_step(
                params.w_fwd, params.u_fwd, params.b_fwd, fd_window(inputs, i, offsets), h, c
            )
        np.testing.assert_allclose(out.h[1, :H], h, rtol=0, atol=0)

    def test_backward_block_matches_reference_steps(self):
        rng = np.random.default_rng(6)
        d, H = 3, 2
        params = BiLSTMParams.init(d, H, rng)
        inputs = rng.normal(size=(3, d))
        out = encode(params, inputs, train=False)
        h = np.zeros(H)
        c = np.zeros(H)
        offsets = (2, 1, 0, -1, -2)  # the backward direction reads its window in scan order
        for i in (2, 1, 0):
            h, c = reference_lstm_step(
                params.w_bwd, params.u_bwd, params.b_bwd, fd_window(inputs, i, offsets), h, c
            )
        np.testing.assert_allclose(out.h[0, H:], h, rtol=0, atol=0)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("d", [80, 100])
    def test_every_step_is_bitwise_the_reference_at_benchmark_widths(self, d, train):
        # the pos and ner widths (H = 50), sentences of 1..30 tokens: h, c and
        # the gates of every step of both directions, with atol=0
        H = 50
        rng = np.random.default_rng(d)
        params = BiLSTMParams.init(d, H, rng)
        params.b_fwd[:] = rng.normal(size=4 * H)
        params.b_bwd[:] = rng.normal(size=4 * H)
        for n in range(1, 31):
            inputs = rng.normal(size=(n, d))
            out = encode(params, inputs, train=train, rng=rng)
            directions = (
                (params.w_fwd, params.u_fwd, params.b_fwd, range(n), (-2, -1, 0, 1, 2)),
                (params.w_bwd, params.u_bwd, params.b_bwd, range(n - 1, -1, -1),
                 (2, 1, 0, -1, -2)),
            )
            scan = out.scan  # stacked in scan order, the direction on the last axis
            for k, (w, u, b, positions, offsets) in enumerate(directions):
                h = c = np.zeros(H)
                for step, i in enumerate(positions):
                    window = fd_window(out.dropped, i, offsets)
                    gates = reference_gates(w, u, b, window, h)
                    h, c = reference_lstm_step(w, u, b, window, h, c)
                    np.testing.assert_allclose(scan.gates[step, ..., k], gates, rtol=0, atol=0)
                    np.testing.assert_allclose(scan.c[step, :, k], c, rtol=0, atol=0)
                    np.testing.assert_allclose(scan.h[step, :, k], h, rtol=0, atol=0)
                    np.testing.assert_allclose(out.h[i, k * H : (k + 1) * H], h, rtol=0, atol=0)

    def test_infer_deterministic(self):
        rng = np.random.default_rng(1)
        params = BiLSTMParams.init(3, 4, rng)
        inputs = rng.normal(size=(5, 3))
        h1 = encode(params, inputs, train=False).h
        h2 = encode(params, inputs, train=False).h
        np.testing.assert_array_equal(h1, h2)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        params = BiLSTMParams.init(3, 4, rng)
        with pytest.raises(ValueError):
            encode(params, rng.normal(size=(2, 5)), train=False)

    def test_no_nan_with_large_inputs(self):
        rng = np.random.default_rng(2)
        params = BiLSTMParams.init(6, 5, rng)
        inputs = rng.uniform(-10, 10, (20, 6))
        out = encode(params, inputs, train=False)
        assert np.all(np.isfinite(out.h))


class TestNumpyIdentities:
    """The numpy results the bitwise-unchanged forward scan rests on."""

    @pytest.mark.parametrize("d", [80, 100])
    def test_batched_matmul_is_the_per_row_gemv(self, d):
        # the input terms of all steps at once, written to a strided output
        H = 50
        rng = np.random.default_rng(d)
        w = rng.uniform(-0.1, 0.1, (4 * H, WINDOW * d))
        for n in range(1, 31):
            windows = rng.normal(size=(n, WINDOW * d))
            out = np.empty((n, 4 * H, 2))
            np.matmul(w, windows[:, :, None], out[:, :, 1, None])
            for i in range(n):
                assert out[i, :, 1].tobytes() == (w @ windows[i]).tobytes()

    def test_stacked_recurrent_matmul_is_each_directions_gemv(self):
        # u stacked over the directions, h read and the result written with
        # the direction as the last axis
        H = 50
        rng = np.random.default_rng(1)
        u = rng.uniform(-0.2, 0.2, (2, 4 * H, H))
        for _ in range(20):
            h = rng.normal(size=(H, 2))
            pre = np.empty((4 * H, 2))
            np.matmul(u, h.T[:, :, None], pre.T[:, :, None])
            for k in range(2):
                assert pre[:, k].copy().tobytes() == (u[k] @ h[:, k].copy()).tobytes()

    def test_stacked_transposed_recurrent_matmul_is_each_directions_gemv(self):
        # backward's u.T @ row: the stacked u read transposed, the row read and
        # the result written with the direction as the last axis
        H = 50
        rng = np.random.default_rng(2)
        u = rng.uniform(-0.2, 0.2, (2, 4 * H, H))
        for _ in range(20):
            row = rng.normal(size=(4 * H, 2))
            out = np.empty((H, 2))
            np.matmul(u.transpose(0, 2, 1), row.T[:, :, None], out.T[:, :, None])
            for k in range(2):
                assert out[:, k].copy().tobytes() == (u[k].T @ row[:, k].copy()).tobytes()


class TestSymmetry:
    def test_reverse_and_swap_directions(self):
        rng = np.random.default_rng(7)
        d, H = 3, 4
        params = BiLSTMParams.init(d, H, rng)
        inputs = rng.normal(size=(6, d))
        swapped = BiLSTMParams(
            input_dim=d,
            hidden=H,
            w_fwd=params.w_bwd,
            u_fwd=params.u_bwd,
            b_fwd=params.b_bwd,
            w_bwd=params.w_fwd,
            u_bwd=params.u_fwd,
            b_bwd=params.b_fwd,
        )
        direct = encode(params, inputs, train=False).h
        mirrored = encode(swapped, inputs[::-1], train=False).h[::-1]
        np.testing.assert_array_equal(mirrored[:, H:], direct[:, :H])
        np.testing.assert_array_equal(mirrored[:, :H], direct[:, H:])


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(3)
        params = BiLSTMParams.init(3, 4, rng)
        inputs = rng.normal(size=(4, 3))
        out = encode(params, inputs, train=True, rng=rng)
        grads, d_in = backward(params, out, np.zeros_like(out.h))
        assert all(not np.any(a) for a in grads.values())
        assert not np.any(d_in)

    def test_backward_requires_train_mode(self):
        rng = np.random.default_rng(3)
        params = BiLSTMParams.init(3, 4, rng)
        out = encode(params, rng.normal(size=(2, 3)), train=False)
        with pytest.raises(ValueError):
            backward(params, out, np.zeros_like(out.h))

    def test_gradients_match_finite_differences(self):
        # random small instances; class-level norm-ratio error below 1e-4
        rng = np.random.default_rng(17)
        for trial in range(3):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(2, 5))
            H = int(rng.integers(2, 7))
            params = BiLSTMParams.init(d, H, rng)
            inputs = rng.normal(size=(n, d))
            masks = (rng.random((n, d)) >= 0.25).astype(np.float64)
            upstream = rng.normal(size=(n, 2 * H))

            out = encode(params, inputs, train=True, masks=masks)
            grads, d_in = backward(params, out, upstream)

            def loss():
                o = encode(params, inputs, train=True, masks=masks)
                return float(np.sum(o.h * upstream))

            eps = 1e-5
            groups = {
                "gate_weights": ("w_fwd", "u_fwd", "w_bwd", "u_bwd"),
                "biases": ("b_fwd", "b_bwd"),
            }
            for cls, names in groups.items():
                diff_sq = a_sq = f_sq = 0.0
                for name in names:
                    arr = params.arrays()[name]
                    g = grads[name]
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + eps
                        lp = loss()
                        arr[idx] = orig - eps
                        lm = loss()
                        arr[idx] = orig
                        fd = (lp - lm) / (2 * eps)
                        diff_sq += (g[idx] - fd) ** 2
                        a_sq += g[idx] ** 2
                        f_sq += fd**2
                rel = np.sqrt(diff_sq) / max(np.sqrt(a_sq), np.sqrt(f_sq), 1e-8)
                assert rel < 1e-4, (cls, rel)

            diff_sq = a_sq = f_sq = 0.0
            for i in range(n):
                for j in range(d):
                    orig = inputs[i, j]
                    inputs[i, j] = orig + eps
                    lp = loss()
                    inputs[i, j] = orig - eps
                    lm = loss()
                    inputs[i, j] = orig
                    fd = (lp - lm) / (2 * eps)
                    diff_sq += (d_in[i, j] - fd) ** 2
                    a_sq += d_in[i, j] ** 2
                    f_sq += fd**2
            rel = np.sqrt(diff_sq) / max(np.sqrt(a_sq), np.sqrt(f_sq), 1e-8)
            assert rel < 1e-4, ("inputs", rel)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_step_reference(self, n):
        rng = np.random.default_rng(100 + n)
        d, H, p = 3, 4, 0.25
        params = BiLSTMParams.init(d, H, rng)
        params.b_fwd[:] = rng.normal(size=4 * H)
        params.b_bwd[:] = rng.normal(size=4 * H)
        inputs = rng.normal(size=(n, d))
        masks = (rng.random((n, d)) >= p).astype(np.float64)
        upstream = rng.normal(size=(n, 2 * H))
        out = encode(params, inputs, train=True, masks=masks, dropout_p=p)
        grads, d_in = backward(params, out, upstream)

        dropped = inputs * masks / (1.0 - p)
        fwd = reference_bptt(
            params.w_fwd, params.u_fwd, params.b_fwd, dropped,
            range(n), (-2, -1, 0, 1, 2), upstream[:, :H],
        )
        bwd = reference_bptt(
            params.w_bwd, params.u_bwd, params.b_bwd, dropped,
            range(n - 1, -1, -1), (2, 1, 0, -1, -2), upstream[:, H:],
        )
        expect = dict(zip(("w_fwd", "u_fwd", "b_fwd"), fwd[:3]))
        expect.update(zip(("w_bwd", "u_bwd", "b_bwd"), bwd[:3]))
        assert set(grads) == set(expect)
        for name, want in expect.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=0, err_msg=name)
        want_in = (fwd[3] + bwd[3]) * masks / (1.0 - p)
        np.testing.assert_allclose(d_in, want_in, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [80, 100])
    def test_bitwise_the_per_direction_loops_at_benchmark_widths(self, d):
        # the pos and ner widths (H = 50), sentences of 1..30 tokens: all six
        # gradients and d_inputs, with atol=0
        H = 50
        rng = np.random.default_rng(d + 1)
        params = BiLSTMParams.init(d, H, rng)
        params.b_fwd[:] = rng.normal(size=4 * H)
        params.b_bwd[:] = rng.normal(size=4 * H)
        for n in range(1, 31):
            inputs = rng.normal(size=(n, d))
            out = encode(params, inputs, train=True, rng=rng)
            upstream = rng.normal(size=(n, 2 * H))
            grads, d_in = backward(params, out, upstream)
            want, want_in = per_direction_backward(params, out, upstream)
            assert list(grads) == list(want)
            for name in want:
                np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=0, err_msg=name)
            np.testing.assert_allclose(d_in, want_in, rtol=0, atol=0)

    def test_middle_token_of_five_feeds_all_positions(self):
        rng = np.random.default_rng(9)
        n, d, H = 5, 3, 4
        params = BiLSTMParams.init(d, H, rng)
        inputs = rng.normal(size=(n, d))
        out = encode(params, inputs, train=True, masks=np.ones((n, d)))
        contributing = []
        for j in range(n):
            upstream = np.zeros_like(out.h)
            upstream[j] = rng.normal(size=2 * H)
            _, d_in = backward(params, out, upstream)
            if np.any(d_in[2]):
                contributing.append(j)
        assert contributing == [0, 1, 2, 3, 4]
        assert len(contributing) == WINDOW

    def test_each_input_occupies_five_window_slots(self):
        # the recurrent cell state spreads gradients beyond the window, so
        # the sharing structure is pinned on the cached windows themselves
        rng = np.random.default_rng(10)
        n, d, H = 7, 3, 4
        params = BiLSTMParams.init(d, H, rng)
        inputs = rng.normal(size=(n, d))
        out = encode(params, inputs, train=True, masks=np.ones((n, d)))
        middle = 3
        fwd_slots = []
        for i in range(n):
            for slot, off in enumerate((-2, -1, 0, 1, 2)):
                block = out.scan.windows[0][i, slot * d : (slot + 1) * d]
                if i + off == middle:
                    np.testing.assert_array_equal(block, out.dropped[middle])
                    fwd_slots.append((i, slot))
        assert len(fwd_slots) == WINDOW
        bwd_slots = []
        for i in range(n):
            for slot, off in enumerate((2, 1, 0, -1, -2)):
                block = out.scan.windows[1][n - 1 - i, slot * d : (slot + 1) * d]
                if i + off == middle:
                    np.testing.assert_array_equal(block, out.dropped[middle])
                    bwd_slots.append((i, slot))
        assert len(bwd_slots) == WINDOW


class TestDropout:
    def test_train_masks_change_output(self):
        rng = np.random.default_rng(4)
        params = BiLSTMParams.init(3, 4, rng)
        inputs = rng.normal(size=(4, 3))
        h1 = encode(params, inputs, train=True, rng=np.random.default_rng(1)).h
        h2 = encode(params, inputs, train=True, rng=np.random.default_rng(2)).h
        assert np.any(h1 != h2)

    def test_expected_output_matches_inference(self):
        # inverted dropout: the mask-averaged output converges to the plain
        # pass; small inputs keep the nonlinearity bias inside the tolerance
        rng = np.random.default_rng(11)
        n, d, H = 3, 4, 5
        params = BiLSTMParams.init(d, H, rng)
        inputs = rng.uniform(-0.2, 0.2, (n, d))
        infer = encode(params, inputs, train=False).h
        mask_rng = np.random.default_rng(123)
        draws = 12000
        acc = np.zeros_like(infer)
        for _ in range(draws):
            acc += encode(params, inputs, train=True, rng=mask_rng, dropout_p=0.25).h
        rel = np.linalg.norm(acc / draws - infer) / np.linalg.norm(infer)
        assert rel < 0.02
