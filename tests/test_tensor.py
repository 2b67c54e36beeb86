import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hiercomment import tensor as T

# each example rewrites the one file it reads, so the shared tmp_path is safe
FILE_PROPERTY = settings(max_examples=50, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def _p(rng, *shape):
    return T.parameter(rng.uniform(-2, 2, size=shape))


class TestElementwiseOps:
    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(0)
        a, b = _p(rng, 4, 3), _p(rng, 3)
        err = T.grad_check(lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), {"a": a, "b": b})
        assert err < 1e-4

    def test_sub_mul(self):
        rng = np.random.default_rng(1)
        a, b = _p(rng, 5), _p(rng, 5)
        err = T.grad_check(lambda: T.tsum(T.mul(T.sub(a, b), a)), {"a": a, "b": b})
        assert err < 1e-4

    def test_sigmoid_tanh_relu_log(self):
        rng = np.random.default_rng(2)
        x = T.parameter(rng.uniform(0.5, 2.0, size=7))
        err = T.grad_check(
            lambda: T.tsum(T.add(T.log(x), T.add(T.sigmoid(x), T.add(T.tanh(x), T.relu(x))))),
            {"x": x})
        assert err < 1e-4

    def test_clamp_min_blocks_gradient_below_floor(self):
        x = T.parameter([0.5, -0.5])
        y = T.tsum(T.clamp_min(x, 0.0))
        y.backward()
        npt.assert_allclose(x.grad, [1.0, 0.0])


class TestMatmul:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,)),
                                       ((3, 2, 4), (4, 2)), ((3, 2, 4), (4,))])
    def test_fd(self, sa, sb):
        rng = np.random.default_rng(3)
        a, b = _p(rng, *sa), _p(rng, *sb)
        err = T.grad_check(lambda: T.tsum(T.matmul(a, b)), {"a": a, "b": b})
        assert err < 1e-4

    def test_shape_error_names_op(self):
        with pytest.raises(T.ShapeError, match="matmul"):
            T.matmul(T.const(np.ones((2, 3))), T.const(np.ones((2, 3))))

    def test_right_operand_above_2d_rejected(self):
        with pytest.raises(T.ShapeError, match="matmul"):
            T.matmul(T.const(np.ones((2, 3))), T.const(np.ones((2, 3, 4))))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = T.const(rng.normal(size=(5, 9)) * 30)
        s = T.softmax(x, axis=-1)
        npt.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-12)
        assert (s.data >= 0).all()

    def test_fd(self):
        rng = np.random.default_rng(5)
        x = _p(rng, 6)
        w = T.const(rng.normal(size=6))
        err = T.grad_check(lambda: T.tsum(T.mul(T.softmax(x), w)), {"x": x})
        assert err < 1e-4


class TestStructuralOps:
    def test_concat_axis0_and_axis1(self):
        rng = np.random.default_rng(6)
        a, b = _p(rng, 2, 3), _p(rng, 2, 2)
        err = T.grad_check(lambda: T.tsum(T.mul(T.concat([a, b], axis=1),
                                                T.concat([a, b], axis=1))),
                           {"a": a, "b": b})
        assert err < 1e-4

    def test_stack_rows_and_row(self):
        rng = np.random.default_rng(7)
        a, b = _p(rng, 3), _p(rng, 3)

        def loss():
            m = T.stack_rows([a, b, a])
            return T.tsum(T.mul(T.row(m, 0), T.row(m, 2)))
        assert T.grad_check(loss, {"a": a, "b": b}) < 1e-4

    def test_embedding_gather_repeated_ids_accumulate(self):
        table = T.parameter(np.arange(12, dtype=float).reshape(4, 3))
        out = T.tsum(T.embedding_gather(table, [1, 1, 3]))
        out.backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        npt.assert_allclose(table.grad, expected)

    def test_scatter_sum(self):
        v = T.parameter([1.0, 2.0, 3.0])
        out = T.scatter_sum(v, [0, 2, 0], size=4)
        npt.assert_allclose(out.data, [4.0, 0.0, 2.0, 0.0])
        T.tsum(T.mul(out, T.const([1.0, 1.0, 5.0, 1.0]))).backward()
        npt.assert_allclose(v.grad, [1.0, 5.0, 1.0])

    def test_gather_scalar(self):
        v = T.parameter([3.0, 4.0, 5.0])
        T.gather_scalar(v, 1).backward()
        npt.assert_allclose(v.grad, [0.0, 1.0, 0.0])

    def test_vec_slice_values_and_gradient(self):
        v = T.parameter([1.0, 2.0, 3.0, 4.0])
        out = T.vec_slice(v, 1, 3)
        npt.assert_allclose(out.data, [2.0, 3.0])
        T.tsum(T.mul(out, T.const([10.0, 100.0]))).backward()
        npt.assert_allclose(v.grad, [0.0, 10.0, 100.0, 0.0])

    def test_vec_slice_rejects_bad_ranges(self):
        v = T.parameter([1.0, 2.0])
        with pytest.raises(T.ShapeError):
            T.vec_slice(v, 0, 5)
        with pytest.raises(T.ShapeError):
            T.vec_slice(T.parameter(np.eye(2)), 0, 1)

    def test_sum_mean_axis(self):
        rng = np.random.default_rng(8)
        x = _p(rng, 3, 4)
        err = T.grad_check(lambda: T.tsum(T.mul(T.tsum(T.mul(x, x), axis=0), T.tsum(x, axis=0))), {"x": x})
        assert err < 1e-4


class TestAccumulationAndGraph:
    def test_shared_node_gradients_add(self):
        x = T.parameter([2.0])
        y = T.add(T.mul(x, x), T.mul(x, T.const([3.0])))
        T.tsum(y).backward()
        npt.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_graph_freed_after_backward(self):
        x = T.parameter([1.0])
        y = T.mul(x, x)
        z = T.tsum(y)
        z.backward()
        assert y._parents == () and y._vjp is None

    def test_no_grad_blocks_tape(self):
        x = T.parameter([1.0])
        with T.no_grad():
            y = T.mul(x, x)
        assert y._vjp is None and not y.requires_grad

    def test_backward_requires_scalar(self):
        x = T.parameter([1.0, 2.0])
        with pytest.raises(T.ShapeError):
            T.mul(x, x).backward()


class TestDropout:
    def test_eval_is_identity(self):
        x = T.const(np.ones(100))
        out = T.dropout(x, 0.7, np.random.default_rng(0), train=False)
        assert out is x

    def test_train_scales_kept_units(self):
        x = T.const(np.ones(20000))
        out = T.dropout(x, 0.7, np.random.default_rng(1), train=True)
        kept = out.data[out.data > 0]
        npt.assert_allclose(kept, np.full_like(kept, 1.0 / 0.3))
        assert abs(len(kept) / 20000 - 0.3) < 0.02

    def test_fd_with_fixed_mask(self):
        rng = np.random.default_rng(9)
        x = _p(rng, 30)

        def loss():
            r = np.random.default_rng(42)
            return T.tsum(T.mul(T.dropout(x, 0.5, r, train=True), x))
        assert T.grad_check(loss, {"x": x}) < 1e-4

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(T.const([1.0]), 1.0, np.random.default_rng(0), True)


def _gru_weights(rng, din, h):
    return {
        "wi": T.parameter(rng.uniform(-0.5, 0.5, size=(din, 3 * h))),
        "bi": T.parameter(rng.uniform(-0.5, 0.5, size=3 * h)),
        "wh": T.parameter(rng.uniform(-0.5, 0.5, size=(h, 3 * h))),
        "bh": T.parameter(rng.uniform(-0.5, 0.5, size=3 * h)),
    }


class TestGRU:
    def test_zero_weights_halve_state(self):
        h = 4
        w = {
            "wi": T.const(np.zeros((3, 3 * h))),
            "bi": T.const(np.zeros(3 * h)),
            "wh": T.const(np.zeros((h, 3 * h))),
            "bh": T.const(np.zeros(3 * h)),
        }
        h_prev = T.const(np.array([1.0, -2.0, 0.5, 0.0]))
        out = T.gru_run(T.const(np.ones((1, 3))), h_prev, w)
        npt.assert_allclose(out.data[0], 0.5 * h_prev.data)
        out0 = T.gru_run(T.const(np.ones((1, 3))), T.const(np.zeros(h)), w)
        npt.assert_allclose(out0.data[0], np.zeros(h))

    def test_cell_fd(self):
        rng = np.random.default_rng(10)
        w = _gru_weights(rng, 3, 4)
        x = _p(rng, 3)
        h0 = _p(rng, 4)
        params = {"x": x, "h0": h0, **w}

        def loss():
            step = T.gru_run(T.reshape(x, (1, 3)), h0, w)
            return T.tsum(T.mul(step, step))
        assert T.grad_check(loss, params) < 1e-4

    def test_two_step_chain_fd(self):
        rng = np.random.default_rng(11)
        w = _gru_weights(rng, 2, 3)
        xs = _p(rng, 4, 2)
        params = {"xs": xs, **w}

        def loss():
            states = T.gru_run(xs, T.const(np.zeros(3)), w)
            return T.tsum(T.row(states, -1))
        assert T.grad_check(loss, params) < 1e-4

    def test_bigru_shapes_and_fd(self):
        rng = np.random.default_rng(12)
        layers = [
            {"f": _gru_weights(rng, 2, 3), "b": _gru_weights(rng, 2, 3)},
            {"f": _gru_weights(rng, 6, 3), "b": _gru_weights(rng, 6, 3)},
        ]
        xs = _p(rng, 5, 2)
        H, finals = T.bigru_encode(xs, layers)
        assert H.data.shape == (5, 6)
        assert len(finals) == 2 and finals[0].data.shape == (6,)
        params = {"xs": xs}
        for li, lw in enumerate(layers):
            for d in ("f", "b"):
                for k in ("wi", "bi", "wh", "bh"):
                    params["l%d.%s.%s" % (li, d, k)] = lw[d][k]

        def loss():
            H2, f2 = T.bigru_encode(xs, layers)
            return T.add(T.tsum(T.mul(H2, H2)), T.tsum(f2[1]))
        assert T.grad_check(loss, params, max_coords=6) < 1e-4

    def test_bigru_rejects_empty(self):
        rng = np.random.default_rng(13)
        layers = [{"f": _gru_weights(rng, 2, 3), "b": _gru_weights(rng, 2, 3)}]
        with pytest.raises(T.ShapeError):
            T.bigru_encode(T.const(np.zeros((0, 2))), layers)

    def test_backward_final_is_leftmost_state(self):
        rng = np.random.default_rng(14)
        w = _gru_weights(rng, 2, 3)
        xs = T.const(rng.normal(size=(4, 2)))
        h0 = T.const(np.zeros(3))
        states = T.gru_run(xs, h0, w, reverse=True)
        lone = T.gru_run(T.const(xs.data[3:831]), h0, w, reverse=True)
        npt.assert_allclose(states.data[3], lone.data[3 - 3])


# The one-step GRU node, the cell and the list-returning run that the
# sequence op replaced, kept as the reference it must agree with.

def reference_gru_step(gi, h_prev, wh, bh):
    gi, h_prev, wh, bh = map(T._as_tensor, (gi, h_prev, wh, bh))
    hsize = h_prev.data.shape[-1]
    gh = h_prev.data @ wh.data + bh.data
    h1, h2 = hsize, 2 * hsize
    giz, gir, gin = gi.data[..., :h1], gi.data[..., h1:h2], gi.data[..., h2:]
    ghz, ghr, ghn = gh[..., :h1], gh[..., h1:h2], gh[..., h2:]
    z = 1.0 / (1.0 + np.exp(-(giz + ghz)))
    r = 1.0 / (1.0 + np.exp(-(gir + ghr)))
    n = np.tanh(gin + r * ghn)
    out_data = z * h_prev.data + (1.0 - z) * n

    def vjp(g):
        dz = g * (h_prev.data - n)
        dn = g * (1.0 - z)
        dan = dn * (1.0 - n * n)
        dgin = dan
        dr = dan * ghn
        dghn = dan * r
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        dgh = np.concatenate([daz, dar, dghn], axis=-1)
        T._accum(gi, np.concatenate([daz, dar, dgin], axis=-1))
        T._accum(h_prev, dgh @ wh.data.T + g * z)
        if dgh.ndim == 1:
            T._accum(wh, np.outer(h_prev.data, dgh))
            T._accum(bh, dgh)
        else:
            T._accum(wh, h_prev.data.T @ dgh)
            T._accum(bh, dgh.sum(axis=0))
    return T._make(out_data, (gi, h_prev, wh, bh), vjp)


def reference_gru_cell(x, h_prev, weights):
    gi = T.add(T.matmul(x, weights["wi"]), weights["bi"])
    return reference_gru_step(gi, h_prev, weights["wh"], weights["bh"])


def reference_gru_run(x_seq, weights, reverse=False, h0=None):
    n_steps = x_seq.data.shape[0]
    gi_all = T.add(T.matmul(x_seq, weights["wi"]), weights["bi"])
    h = T.const(np.zeros(weights["wh"].data.shape[0])) if h0 is None else h0
    states = [None] * n_steps
    steps = range(n_steps - 1, -1, -1) if reverse else range(n_steps)
    for t in steps:
        h = reference_gru_step(T.row(gi_all, t), h, weights["wh"], weights["bh"])
        states[t] = h
    return states


def reference_bigru_encode(x_seq, layer_weights, dropout_p, rng, train):
    cur = x_seq
    finals = []
    for li, lw in enumerate(layer_weights):
        if li > 0 and train and dropout_p > 0.0:
            cur = T.dropout(cur, dropout_p, rng, train)
        fwd = reference_gru_run(cur, lw["f"], reverse=False)
        bwd = reference_gru_run(cur, lw["b"], reverse=True)
        cur = T.concat([T.stack_rows(fwd), T.stack_rows(bwd)], axis=1)
        finals.append(T.concat([fwd[-1], bwd[0]]))
    return cur, finals


def _rel_diff(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


class TestGRUMatchesReference:
    """gru_run / gru_step against the per-step reference: values and the
    gradient of every input agree within 1e-12 relative."""

    def assert_agree(self, build, build_ref, params):
        results = []
        for fn in (build, build_ref):
            outs = fn()
            weights = np.random.default_rng(99)
            loss = T.const(np.asarray(0.0))
            for o in outs:
                loss = T.add(loss, T.tsum(T.mul(o, T.const(weights.normal(size=o.shape)))))
            loss.backward()
            results.append(([o.data for o in outs],
                            {k: p.grad for k, p in params.items()}))
            for p in params.values():
                p.grad = None
        (values, grads), (want_values, want_grads) = results
        for got, want in zip(values, want_values):
            assert got.shape == want.shape
            assert _rel_diff(got, want) <= 1e-12
        for name, want in want_grads.items():
            assert want is not None and _rel_diff(grads[name], want) <= 1e-12, name

    @pytest.mark.parametrize("steps,reverse,nonzero_h0", [
        (5, False, False), (5, True, False), (1, False, False), (1, True, True),
        (4, False, True), (3, True, True)])
    def test_sequence(self, steps, reverse, nonzero_h0):
        rng = np.random.default_rng(20 + steps)
        w = _gru_weights(rng, 3, 4)
        xs = _p(rng, steps, 3)
        h0 = _p(rng, 4) if nonzero_h0 else T.const(np.zeros(4))
        params = {"xs": xs, **w, **({"h0": h0} if nonzero_h0 else {})}
        self.assert_agree(
            lambda: [T.gru_run(xs, h0, w, reverse=reverse)],
            lambda: [T.stack_rows(reference_gru_run(xs, w, reverse=reverse, h0=h0))],
            params)

    def test_batched_length_one_step(self):
        rng = np.random.default_rng(27)
        w = _gru_weights(rng, 3, 4)
        x = _p(rng, 1, 5, 3)
        h0 = _p(rng, 5, 4)
        self.assert_agree(
            lambda: [T.reshape(T.gru_run(x, h0, w), (5, 4))],
            lambda: [reference_gru_cell(T.row(x, 0), h0, w)],
            {"x": x, "h0": h0, **w})

    def test_two_layer_bigru_with_dropout(self):
        rng = np.random.default_rng(28)
        layers = [
            {"f": _gru_weights(rng, 2, 3), "b": _gru_weights(rng, 2, 3)},
            {"f": _gru_weights(rng, 6, 3), "b": _gru_weights(rng, 6, 3)},
        ]
        xs = _p(rng, 6, 2)
        params = {"xs": xs}
        for li, lw in enumerate(layers):
            for d in ("f", "b"):
                for k in ("wi", "bi", "wh", "bh"):
                    params["l%d.%s.%s" % (li, d, k)] = lw[d][k]
        draws = []

        def encoder(fn):
            def build():
                drop_rng = np.random.default_rng(5)
                per_step, finals = fn(xs, layers, 0.5, drop_rng, True)
                draws.append(drop_rng.random())
                return [per_step] + finals
            return build
        self.assert_agree(encoder(T.bigru_encode), encoder(reference_bigru_encode), params)
        assert draws[0] == draws[1]


class TestBatchedOps:
    """Ops the batched decoder runs with a leading batch axis, at B=3."""

    def test_gru_step_rows_match_unbatched_and_fd(self):
        rng = np.random.default_rng(14)
        w = _gru_weights(rng, 3, 4)
        x = _p(rng, 3, 3)
        h0 = _p(rng, 3, 4)
        out = T.gru_run(T.reshape(x, (1, 3, 3)), h0, w)
        for b in range(3):
            one = T.gru_run(T.const(x.data[b:b + 1]), T.const(h0.data[b]), w)
            npt.assert_allclose(out.data[0, b], one.data[0], atol=1e-12)

        def loss():
            o = T.gru_run(T.reshape(x, (1, 3, 3)), h0, w)
            return T.tsum(T.mul(o, o))
        assert T.grad_check(loss, {"x": x, "h0": h0, **w}) < 1e-4

    def test_scatter_sum_rows_and_fd(self):
        rng = np.random.default_rng(15)
        v = _p(rng, 3, 4)
        index = [2, 0, 2, 1]
        out = T.scatter_sum(v, index, size=5)
        for b in range(3):
            npt.assert_allclose(out.data[b], T.scatter_sum(T.const(v.data[b]), index, 5).data)
        w = T.const(rng.normal(size=(3, 5)))
        assert T.grad_check(lambda: T.tsum(T.mul(T.scatter_sum(v, index, 5), w)),
                            {"v": v}) < 1e-4

    def test_softmax_last_axis_fd(self):
        rng = np.random.default_rng(16)
        x = _p(rng, 3, 5)
        w = T.const(rng.normal(size=(3, 5)))
        assert T.grad_check(lambda: T.tsum(T.mul(T.softmax(x, axis=-1), w)),
                            {"x": x}) < 1e-4

    def test_concat_last_axis_fd(self):
        rng = np.random.default_rng(17)
        a, b = _p(rng, 3, 2), _p(rng, 3, 4)
        w = T.const(rng.normal(size=(3, 6)))
        assert T.grad_check(lambda: T.tsum(T.mul(T.concat([a, b], axis=-1), w)),
                            {"a": a, "b": b}) < 1e-4

    def test_transpose_and_reshape_fd(self):
        rng = np.random.default_rng(18)
        a, b = _p(rng, 3, 4), _p(rng, 3)
        w = T.const(rng.normal(size=(3, 3)))
        npt.assert_allclose(T.transpose(a).data, a.data.T)
        assert T.reshape(b, (-1, 1)).data.shape == (3, 1)

        def loss():
            m = T.matmul(a, T.transpose(a))               # (3, 3)
            return T.tsum(T.mul(T.mul(m, T.reshape(b, (-1, 1))), w))
        assert T.grad_check(loss, {"a": a, "b": b}) < 1e-4
        with pytest.raises(T.ShapeError, match="transpose"):
            T.transpose(b)

    def test_embedding_gather_fd(self):
        rng = np.random.default_rng(19)
        table = _p(rng, 5, 2)
        w = T.const(rng.normal(size=(3, 2)))
        assert T.grad_check(lambda: T.tsum(T.mul(T.embedding_gather(table, [4, 1, 4]), w)),
                            {"table": table}) < 1e-4


class TestAdam:
    def test_first_step_closed_form(self):
        p = T.parameter(np.array([1.0, -2.0]))
        params = {"p": p}
        opt = T.AdamState(params, lr=0.1)
        p.grad = np.array([0.5, -0.25])
        before = p.data.copy()
        opt.step(params)
        expected = before - 0.1 * p.grad / (np.abs(p.grad) + 1e-8)
        npt.assert_allclose(p.data, expected, rtol=1e-9)

    def test_decreases_quadratic(self):
        p = T.parameter(np.array([3.0]))
        params = {"p": p}
        opt = T.AdamState(params, lr=0.05)
        for _ in range(400):
            loss = T.tsum(T.mul(p, p))
            opt.zero_grad(params)
            loss.backward()
            opt.step(params)
        assert abs(p.data[0]) < 0.05

    def test_nonfinite_gradient_raises_diverged(self):
        p = T.parameter(np.array([1.0]))
        params = {"p": p}
        opt = T.AdamState(params)
        p.grad = np.array([np.nan])
        with pytest.raises(RuntimeError, match="diverged"):
            opt.step(params)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4),
                  "s": np.asarray(2.5)}
        meta = {"epoch": 7, "note": "x"}
        path = str(tmp_path / "m.ckpt")
        T.save_checkpoint(path, arrays, meta)
        got, got_meta = T.load_checkpoint(path)
        assert got_meta == meta
        for k in arrays:
            npt.assert_array_equal(got[k], arrays[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            T.load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        T.save_checkpoint(path, {"w": np.ones((4, 4))}, {})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            T.load_checkpoint(path)

    def test_byte_identical_rewrites(self, tmp_path):
        arrays = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        T.save_checkpoint(p1, arrays, {"seed": 1})
        T.save_checkpoint(p2, arrays, {"seed": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestCrashSafeWrite:
    @staticmethod
    def fail_at_array(monkeypatch, k):
        """The k-th array write (from 0) raises, after the header and the
        arrays before it are written."""
        real, calls = np.ascontiguousarray, []

        def flaky(arr, dtype=None):
            if len(calls) == k:
                raise OSError("no space left on device")
            calls.append(k)
            return real(arr, dtype=dtype)
        monkeypatch.setattr(np, "ascontiguousarray", flaky)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_failed_write_leaves_the_earlier_checkpoint(self, tmp_path, monkeypatch, k):
        path = tmp_path / "full.ckpt"
        T.save_checkpoint(str(path), {"w": np.ones((2, 3))}, {"epoch": 1})
        before = path.read_bytes()
        self.fail_at_array(monkeypatch, k)
        with pytest.raises(OSError, match="no space"):
            T.save_checkpoint(str(path), {"a": np.zeros(4), "b": np.arange(3.0),
                                          "c": np.eye(2)}, {"epoch": 2})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["full.ckpt"]

    def test_failed_first_write_leaves_no_file(self, tmp_path, monkeypatch):
        self.fail_at_array(monkeypatch, 1)
        with pytest.raises(OSError, match="no space"):
            T.save_checkpoint(str(tmp_path / "new.ckpt"),
                              {"a": np.zeros(4), "b": np.ones(2)}, {})
        assert list(tmp_path.iterdir()) == []

    def test_written_bytes_follow_the_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"an older, longer file that the write replaces")
        arrays = [np.arange(6.0).reshape(2, 3), np.array([-0.5, 1e300])]
        T.write_container(str(path), b"TESTMAG1", 3, {"b": [1], "a": "x"}, arrays)
        blob = b'{"a": "x", "b": [1], "schema_version": 3}'
        assert path.read_bytes() == (b"TESTMAG1" + struct.pack("<Q", len(blob)) + blob
                                     + arrays[0].astype("<f8").tobytes()
                                     + arrays[1].astype("<f8").tobytes())
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


class TestCheckpointProperties:
    def small_checkpoint(self, path):
        T.save_checkpoint(str(path), {"w": np.arange(6.0).reshape(2, 3),
                                      "s": np.asarray(2.5), "e": np.zeros((0, 4))},
                          {"epoch": 3})
        return path.read_bytes()

    @FILE_PROPERTY
    @given(named=st.dictionaries(
               st.text(min_size=1, max_size=6),
               arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
               max_size=4),
           meta=st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6)))
    def test_roundtrip(self, tmp_path, named, meta):
        path = str(tmp_path / "m.ckpt")
        T.save_checkpoint(path, named, meta)
        got, got_meta = T.load_checkpoint(path)
        assert got_meta == meta
        assert list(got) == list(named)
        for k in named:
            assert got[k].shape == named[k].shape
            npt.assert_array_equal(got[k], named[k])

    @FILE_PROPERTY
    @given(data=st.data())
    def test_any_cut_rejected(self, tmp_path, data):
        path = tmp_path / "m.ckpt"
        blob = self.small_checkpoint(path)
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError):
            T.load_checkpoint(str(path))

    @FILE_PROPERTY
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_any_appended_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "m.ckpt"
        path.write_bytes(self.small_checkpoint(path) + extra)
        with pytest.raises(ValueError, match="trailing"):
            T.load_checkpoint(str(path))

    def test_non_json_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob = self.small_checkpoint(path)
        path.write_bytes(blob[:16] + b"\xff" * (len(blob) - 16))
        with pytest.raises(ValueError, match="not a JSON object"):
            T.load_checkpoint(str(path))
