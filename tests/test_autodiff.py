import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from ngn.autodiff import (
    AdamState,
    Tensor,
    adam_step,
    add,
    add_,
    backward,
    concat_cols,
    concat_rows,
    constant,
    gather_rows,
    grads_of,
    load_checkpoint,
    matmul,
    param,
    relu,
    relu_,
    reshape,
    row_scale,
    save_checkpoint,
    scatter_add_rows,
    segment_mean,
    softmax_cross_entropy,
    sparse_mix,
    sum_into_rows,
)
from ngn.errors import ContractError, ShapeError

from helpers import finite_difference_grads


def total(a: Tensor) -> Tensor:
    """The sum of every entry as a 0-d tensor: the entries as one row, times
    a column of ones. Its backward hands each entry the upstream gradient."""
    ones = constant(np.ones((a.data.size, 1), dtype=a.dtype))
    return reshape(matmul(reshape(a, (1, -1)), ones), ())


class TestPrimitives:
    def test_matmul_identity(self):
        x = constant(np.arange(6.0).reshape(2, 3))
        out = matmul(constant(np.eye(2)), x)
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_outer_product_equals_blas_bit_for_bit(self, dtype):
        # an inner dimension of 1 is a broadcast multiply, not a BLAS call;
        # every entry is one product either way
        rng = np.random.default_rng(3)
        col = np.append(rng.integers(0, 7, 40), 0).astype(dtype)[:, None]
        row = rng.standard_normal((1, 33)).astype(dtype)
        out = np.empty((41, 33), dtype)
        got = matmul(constant(col), param(row, dtype=dtype), out=out)
        assert got.data is out and got._on_tape()
        assert np.array_equal(out, np.matmul(col, row)) and np.array_equal(np.signbit(out), np.signbit(col @ row))

    def test_relu_clamps(self):
        x = constant(np.array([[-2.0, 3.0], [0.0, -0.5]]))
        assert np.array_equal(relu(x).data, [[0.0, 3.0], [0.0, 0.0]])

    def test_in_place_forms_reuse_only_buffers_off_the_tape(self):
        rng = np.random.default_rng(0)
        a32, b32 = rng.standard_normal((3, 4)).astype(np.float32), rng.standard_normal(4).astype(np.float32)
        expected_sum, expected_relu = add(constant(a32), constant(b32)).data, relu(constant(a32)).data
        a = constant(a32.copy())
        assert add_(a, constant(b32)) is a and np.array_equal(a.data, expected_sum)
        a = constant(a32.copy())
        assert relu_(a) is a and np.array_equal(a.data, expected_relu)
        # a sum that would change a's dtype or shape, or an operand on a tape, takes a fresh buffer
        for a_data, b in (
            (a32, constant(b32.astype(np.float64))),
            (a32[:1], constant(a32)),
            (a32, param(b32)),
        ):
            a = constant(a_data.copy())
            out = add_(a, b)
            assert out is not a and np.array_equal(a.data, a_data)
            assert np.array_equal(out.data, add(constant(a_data), constant(b.data)).data)
        w = param(a32.copy())
        out = relu_(w)
        assert out is not w and np.array_equal(w.data, a32)
        backward(total(out))
        assert np.array_equal(w.grad, (a32 > 0).astype(np.float32))

    def test_uniform_logits_cross_entropy_is_log_c(self):
        for c in (2, 5, 9):
            logits = constant(np.zeros((4, c)))
            loss = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
            assert abs(float(loss.data) - np.log(c)) < 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(constant(np.zeros((2, 3))), np.zeros(3, dtype=int))

    def test_scatter_then_gather_round_trip(self):
        vals = param(np.arange(8.0).reshape(4, 2))
        idx = np.array([2, 0, 2, 5])
        out = scatter_add_rows(vals, idx, 6)
        assert np.array_equal(out.data[0], vals.data[1])
        assert np.array_equal(out.data[2], vals.data[0] + vals.data[2])
        assert np.all(out.data[1] == 0)

    def test_cross_entropy_is_finite_where_float32_probability_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = softmax_cross_entropy(constant(np.array([[0.0, 120.0]], dtype=np.float32)), np.array([0]))
        assert loss.dtype == np.float32 and float(loss.data) == 120.0

    def test_cross_entropy_float64_matches_softmax_then_log(self):
        # for logits of moderate size no probability underflows in float64,
        # and the two forms agree to rounding; the gradient is the same float
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((7, 4)) * 5
        labels = rng.integers(0, 4, size=7)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(p[np.arange(7), labels]))
        x = param(logits)
        loss = softmax_cross_entropy(x, labels)
        assert abs(float(loss.data) - expected) <= 1e-14 * expected
        backward(loss)
        one_hot = np.eye(4)[labels]
        assert np.array_equal(x.grad, (p - one_hot) / 7)

    def test_concat_rows(self):
        rng = np.random.default_rng(13)
        parts = [param(rng.standard_normal((n, 3))) for n in (2, 0, 4)]
        out = concat_rows(parts)
        assert np.array_equal(out.data, np.vstack([p.data for p in parts]))
        with pytest.raises(ShapeError):
            concat_rows([parts[0], constant(np.zeros((1, 2)))])
        weights = rng.standard_normal((6, 3))
        backward(total(matmul(row_scale(concat_rows(parts), weights[:, 0]), constant(np.ones((3, 1))))))
        assert np.array_equal(parts[0].grad, np.repeat(weights[:2, :1], 3, axis=1))
        assert parts[1].grad.shape == (0, 3)
        assert np.array_equal(parts[2].grad, np.repeat(weights[2:, :1], 3, axis=1))

    def test_segment_mean_with_empty_segment(self):
        x = constant(np.array([[2.0], [4.0], [10.0]]))
        seg = np.array([0, 0, 2])
        out = segment_mean(x, seg, 4, sum_into_rows(seg, 4, x.dtype))
        assert np.allclose(out.data[:, 0], [3.0, 0.0, 10.0, 0.0])


class TestSumIntoRows:
    """scatter_add_rows, the backward of gather_rows and segment_mean sum
    their rows in the order of np.add.at on a zero buffer, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_add_at(self, dtype):
        rng = np.random.default_rng(11)
        n_rows = 8
        # about 40 terms per used row; rows 2, 6 and 7 receive none
        idx = rng.choice([0, 1, 3, 4, 5], size=200)
        scales = 10.0 ** rng.integers(-4, 5, size=(200, 1))
        vals = (rng.standard_normal((200, 3)) * scales).astype(dtype)

        def add_at(index, rows):
            out = np.zeros((n_rows,) + rows.shape[1:], dtype=dtype)
            np.add.at(out, index, rows)
            return out

        expected = add_at(idx, vals)
        # the data is such that another summation order rounds differently
        assert not np.array_equal(add_at(idx[::-1], vals[::-1]), expected)

        out = scatter_add_rows(constant(vals), idx, n_rows).data
        assert out.dtype == dtype
        assert np.array_equal(out, expected)

        counts = np.maximum(np.bincount(idx, minlength=n_rows), 1).astype(dtype)
        mean = segment_mean(constant(vals), idx, n_rows, sum_into_rows(idx, n_rows, dtype)).data
        assert mean.dtype == dtype
        assert np.array_equal(mean, expected / counts[:, None])

        # the upstream gradient of gathered row k is vals[k, 0] in every column
        g = np.repeat(vals[:, :1], 3, axis=1)
        assert not np.array_equal(add_at(idx[::-1], g[::-1]), add_at(idx, g))
        src = Tensor(np.zeros((n_rows, 3), dtype=dtype), requires_grad=True)
        backward(total(row_scale(gather_rows(src, idx, lambda: sum_into_rows(idx, n_rows, dtype)), vals[:, 0])))
        assert src.grad.dtype == dtype
        assert np.array_equal(src.grad, add_at(idx, g))


class TestBackward:
    def test_linear_loss_gradient(self):
        w = param(np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = constant(np.array([[5.0], [7.0]]))
        loss = total(matmul(w, x))
        backward(loss)
        assert np.array_equal(w.grad, np.array([[5.0, 7.0], [5.0, 7.0]]))

    def test_loss_grad_of_itself_is_one(self):
        x = param(np.array(3.0))
        loss = total(x)
        backward(loss)
        assert loss.grad == 1.0

    def test_non_scalar_loss_rejected(self):
        x = param(np.ones((2, 2)))
        with pytest.raises(ContractError):
            backward(relu(x))

    def test_double_backward_rejected(self):
        x = param(np.ones((2, 2)))
        loss = total(x)
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)

    def test_disconnected_parameter_gets_zero(self):
        x = param(np.ones((2, 2)))
        lonely = param(np.ones(3))
        loss = total(relu(x))
        grads = grads_of(loss, {"x": x, "lonely": lonely})
        assert np.all(grads["lonely"] == 0)

    def test_three_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(0)

        def glorot(fan_in, fan_out):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return param(rng.uniform(-bound, bound, size=(fan_in, fan_out)))

        params = {
            "w1": glorot(4, 8),
            "w2": glorot(8, 8),
            "w3": glorot(8, 3),
            "b1": param(rng.standard_normal(8) * 0.1),
        }
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)

        def loss_fn():
            h = relu(add(matmul(constant(x), Tensor(params["w1"].data, True)), Tensor(params["b1"].data, True)))
            h = relu(matmul(h, Tensor(params["w2"].data, True)))
            return softmax_cross_entropy(matmul(h, Tensor(params["w3"].data, True)), labels)

        def loss_with_params():
            h = relu(add(matmul(constant(x), params["w1"]), params["b1"]))
            h = relu(matmul(h, params["w2"]))
            return softmax_cross_entropy(matmul(h, params["w3"]), labels)

        analytic = grads_of(loss_with_params(), params)
        numeric = finite_difference_grads(lambda: loss_fn().data, params)
        for name in params:
            scale = max(1e-8, float(np.max(np.abs(numeric[name]))))
            assert np.max(np.abs(analytic[name] - numeric[name])) / scale < 1e-5

    def test_gather_scatter_sparse_segment_grads(self):
        rng = np.random.default_rng(1)
        x = param(rng.standard_normal((6, 3)))
        s = sp.csr_matrix(
            (np.array([0.5, 1.0, 0.25]), (np.array([0, 2, 3]), np.array([1, 0, 3]))),
            shape=(4, 4),
        )
        idx = np.array([0, 2, 2, 5])
        seg = np.array([0, 0, 1, 1])

        def forward(px):
            g = gather_rows(px, idx, lambda: sum_into_rows(idx, 6, px.dtype))
            g = concat_cols(g, constant(np.ones((4, 1))))
            g = sparse_mix(g, s, lambda: s.T.tocsr())
            g = relu(g)
            g = segment_mean(g, seg, 2, sum_into_rows(seg, 2, g.dtype))
            out = scatter_add_rows(g, np.array([0, 2]), 3)
            return total(out)

        analytic = grads_of(forward(x), {"x": x})
        numeric = finite_difference_grads(lambda: forward(Tensor(x.data, True)).data, {"x": x})
        assert np.max(np.abs(analytic["x"] - numeric["x"])) < 1e-7

    def test_determinism(self):
        rng = np.random.default_rng(2)
        x_val = rng.standard_normal((8, 4))

        def run():
            p = param(x_val.copy())
            loss = total(relu(matmul(p, constant(x_val.T))))
            backward(loss)
            return loss.data.copy(), p.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = param(np.array([1.0, -2.0, 3.0]))
        state = AdamState(rate=1e-3)
        adam_step(state, {"p": p}, {"p": np.zeros(3)})
        assert np.array_equal(p.data, [1.0, -2.0, 3.0])

    def test_first_step_approximates_signed_rate(self):
        p = param(np.array([1.0, 1.0]))
        state = AdamState(rate=1e-3)
        adam_step(state, {"p": p}, {"p": np.array([0.5, -2.0])})
        # hand computation: m_hat = g, v_hat = g^2, update = -rate*g/(|g|+eps)
        assert np.allclose(p.data, [1.0 - 1e-3, 1.0 + 1e-3], atol=1e-9)

    def test_constant_gradient_converges_to_rate_magnitude_steps(self):
        p = param(np.array([0.0]))
        state = AdamState(rate=1e-2)
        prev = p.data.copy()
        for _ in range(300):
            prev = p.data.copy()
            adam_step(state, {"p": p}, {"p": np.array([3.7])})
        # closed-form limit of Adam under constant gradient: step -> rate * sign(g)
        assert abs((prev - p.data)[0] - 1e-2) < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        tensors = {
            "layer0/w": rng.standard_normal((3, 4)),
            "layer0/b": rng.standard_normal(4).astype(np.float32),
            "step": np.array(7),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].dtype == tensors[name].dtype
            assert np.array_equal(loaded[name], tensors[name])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_rejects_every_truncation_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2, dtype=np.float32)})
        data = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for end in list(range(len(data))) + [len(data) + 1]:
            cut.write_bytes(data[:end] + (b"\0" if end > len(data) else b""))
            with pytest.raises(ContractError):
                load_checkpoint(cut)

    def test_tensor_larger_than_the_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros(2)})
        data = bytearray(path.read_bytes())
        data[-24:-16] = (2**40).to_bytes(8, "big")  # the shape field of the only tensor
        path.write_bytes(bytes(data))
        with pytest.raises(ContractError, match="truncated"):
            load_checkpoint(path)

    def test_a_tensor_name_given_twice_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w1": np.zeros(2), "w2": np.ones(3)})
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\x00\x02w2", b"\x00\x02w1"))  # the second tensor's name
        with pytest.raises(ContractError, match="'w1' is listed twice"):
            load_checkpoint(path)
