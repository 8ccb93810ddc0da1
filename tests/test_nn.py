from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_loss_and_grad

from fedsim.config import FieldError
from fedsim.data import synth_dataset
from fedsim.nn import (
    Batch,
    GradVector,
    MlpSpec,
    ParamVector,
    ServerOptimizerState,
    ShapeMismatchError,
    Workspace,
    forward_logits,
    init_params,
    loss,
    loss_and_grad_raw,
    loss_grad,
    loss_raw,
    server_apply,
    sgd_step,
    unflatten,
)


def random_batch(rng, n, spec):
    return Batch(
        rng.uniform(0.0, 1.0, size=(n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n),
    )


def finite_difference_grad(params, batch, h=1e-5):
    """Central differences on loss(), the independent gradient oracle."""
    base = params.values
    grad = np.zeros_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] += h
        up = loss(ParamVector(bumped, params.spec), batch)
        bumped[i] -= 2 * h
        down = loss(ParamVector(bumped, params.spec), batch)
        grad[i] = (up - down) / (2 * h)
    return grad


def naive_per_sample_loss(params, batch):
    """Unvectorized re-implementation of the batch loss, one sample at a time."""
    total = 0.0
    for x, y in zip(batch.inputs, batch.labels):
        h = x
        layers = unflatten(params.values, params.spec)
        for i, (w, b) in enumerate(layers):
            h = h @ w + b
            if i < len(layers) - 1 and params.spec.activation == "relu":
                h = np.maximum(h, 0.0)
        z = h - h.max()
        p = np.exp(z) / np.exp(z).sum()
        total += -np.log(max(p[y], 1e-12))
    return total / batch.size


class TestMlpSpec:
    def test_parameter_count_formula(self):
        assert MlpSpec((784, 10)).parameter_count() == 785 * 10
        assert MlpSpec((784, 500, 200, 10)).parameter_count() == 494_710

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MlpSpec((784,))
        with pytest.raises(ValueError):
            MlpSpec((784, 0, 10))
        with pytest.raises(ValueError):
            MlpSpec((784, 10), activation="tanh")

    def test_rejects_a_net_whose_vector_numpy_cannot_describe(self):
        largest = np.iinfo(np.intp).max // 16  # a (1, n) net has 2n parameters, 16n bytes
        assert MlpSpec((1, largest)).parameter_count() == 2 * largest
        with pytest.raises(FieldError, match="^layer_sizes give "):
            MlpSpec((1, largest + 1))


class TestInitParams:
    def test_deterministic(self):
        spec = MlpSpec((784, 10))
        a = init_params(spec, 7)
        b = init_params(spec, 7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, init_params(spec, 8).values)

    def test_biases_exactly_zero(self):
        params = init_params(MlpSpec((784, 50, 10)), 3)
        for _, b in unflatten(params.values, params.spec):
            assert np.all(b == 0.0)

    def test_weights_zero_mean_fan_in_scaled(self):
        spec = MlpSpec((1000, 400, 10))
        params = init_params(spec, 0)
        (w0, _), _ = unflatten(params.values, spec)
        assert abs(w0.mean()) < 0.005
        assert w0.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.05)


class TestLoss:
    def test_zero_params_give_uniform_softmax(self):
        spec = MlpSpec((784, 10))
        params = ParamVector(np.zeros(spec.parameter_count()), spec)
        batch = random_batch(np.random.default_rng(0), 16, spec)
        assert loss(params, batch) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_loss_is_mean_of_equal_subbatches(self):
        spec = MlpSpec((12, 6, 4))
        rng = np.random.default_rng(1)
        params = init_params(spec, 1)
        batch = random_batch(rng, 20, spec)
        first = Batch(batch.inputs[:10], batch.labels[:10])
        second = Batch(batch.inputs[10:], batch.labels[10:])
        assert loss(params, batch) == pytest.approx(
            0.5 * (loss(params, first) + loss(params, second)), rel=1e-12
        )

    def test_matches_naive_per_sample_loop(self):
        rng = np.random.default_rng(2)
        for seed in range(3):
            spec = MlpSpec((9, 7, 5))
            params = init_params(spec, seed)
            batch = random_batch(rng, 11, spec)
            assert loss(params, batch) == pytest.approx(naive_per_sample_loss(params, batch), rel=1e-12)

    def test_shape_mismatch_raises(self):
        spec = MlpSpec((8, 3))
        params = init_params(spec, 0)
        bad = Batch(np.zeros((2, 9)), np.zeros(2, dtype=int))
        with pytest.raises(ShapeMismatchError):
            loss(params, bad)
        high_label = Batch(np.zeros((2, 8)), np.array([0, 3]))
        with pytest.raises(ShapeMismatchError):
            loss(params, high_label)


class TestLossGrad:
    def test_batch_grad_is_mean_of_singleton_grads(self):
        spec = MlpSpec((10, 8, 4))
        rng = np.random.default_rng(3)
        params = init_params(spec, 3)
        batch = random_batch(rng, 6, spec)
        _, grad = loss_grad(params, batch)
        singles = [
            loss_grad(params, Batch(batch.inputs[i : i + 1], batch.labels[i : i + 1]))[1].values
            for i in range(batch.size)
        ]
        assert np.allclose(grad.values, np.mean(singles, axis=0), atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        spec = MlpSpec((20, 8, 5))
        params = init_params(spec, 4)
        batch = random_batch(rng, 8, spec)
        value, grad = loss_grad(params, batch)
        fd = finite_difference_grad(params, batch)
        tol = np.maximum(1e-6, 1e-4 * np.abs(fd))
        assert np.all(np.abs(grad.values - fd) <= tol)
        assert value == pytest.approx(loss(params, batch), rel=1e-15)

    def test_zero_input_zero_params_bias_gradient(self):
        # two classes, zero inputs: only the output bias sees a gradient,
        # equal to the mean of (softmax - onehot) = [-0.25, 0.25] for labels 0,0,1,0
        spec = MlpSpec((3, 2))
        params = ParamVector(np.zeros(spec.parameter_count()), spec)
        batch = Batch(np.zeros((4, 3)), np.array([0, 0, 1, 0]))
        _, grad = loss_grad(params, batch)
        expected = np.concatenate([np.zeros(6), [-0.25, 0.25]])
        assert np.allclose(grad.values, expected, atol=1e-15)


class TestWorkspaceKernel:
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_reused_workspace_matches_allocating_reference_bitwise(self, activation):
        # stacks of one: full, short, single-row and full again: short batches leave stale rows behind
        spec = MlpSpec((9, 7, 6, 4), activation)
        rng = np.random.default_rng(30)
        workspace = Workspace(spec, 12)
        for seed, rows in enumerate([12, 5, 1, 12, 3]):
            params = init_params(spec, 40 + seed)
            batch = random_batch(rng, rows, spec)
            values, grads = loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None], workspace)
            ref_value, ref_grad = reference_loss_and_grad(params.values, spec, batch.inputs, batch.labels)
            assert values[0] == ref_value
            assert np.array_equal(grads[0], ref_grad)
            assert grads is workspace.fit(spec, 1, rows).grad

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("hidden", [(7,), (7, 6, 5)])
    def test_one_row_batches_match_allocating_reference_bit_for_bit(self, activation, hidden):
        # one-row weight gradients skip BLAS; compared as int64 so that a -0.0 for
        # BLAS's +0.0 fails too, which np.array_equal would let through
        spec = MlpSpec((9, *hidden, 4), activation)
        rng = np.random.default_rng(34)
        workspace = Workspace(spec, 3)
        zeros = 0
        for seed in range(6):
            params = init_params(spec, 50 + seed)
            unflatten(params.values, spec)[-1][1][3] = -1e3  # class 3's probability, and so its delta, is exactly 0
            batch = random_batch(rng, 1, spec)
            batch.inputs[0, ::3] = 0.0
            batch.inputs[0, 1::4] *= -0.0
            values, grads = loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None], workspace)
            ref_value, ref_grad = reference_loss_and_grad(params.values, spec, batch.inputs, batch.labels)
            assert values[0] == ref_value
            assert np.array_equal(grads[0].view(np.int64), ref_grad.view(np.int64))
            zeros += int(np.count_nonzero(ref_grad == 0.0))
        assert zeros > 0

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_loss_matches_allocating_reference_bitwise(self, activation):
        spec = MlpSpec((9, 7, 4), activation)
        params = init_params(spec, 31)
        batch = random_batch(np.random.default_rng(31), 10, spec)
        expected = reference_loss_and_grad(params.values, spec, batch.inputs, batch.labels)[0]
        assert loss(params, batch) == expected
        workspace = Workspace(spec, 12)
        assert loss_raw(params.values[None], spec, batch.inputs[None], batch.labels[None], workspace)[0] == expected

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_forward_into_buffers_matches_allocating_forward_bitwise(self, activation):
        spec = MlpSpec((9, 7, 6, 4), activation)
        params = init_params(spec, 35)
        layers = unflatten(params.values, spec)
        buffers = [np.empty((12, d)) for d in spec.layer_sizes[1:]]
        rng = np.random.default_rng(35)
        for rows in (12, 5, 1):  # short batches use the leading rows
            inputs = rng.uniform(0.0, 1.0, size=(rows, 9))
            h = inputs
            for i, (w, b) in enumerate(layers):
                h = h @ w + b
                if i < len(layers) - 1 and activation == "relu":
                    h = np.maximum(h, 0.0)
            logits = forward_logits(params.values, spec, inputs, buffers)
            assert np.array_equal(logits.view(np.int64), h.view(np.int64))
            assert np.shares_memory(logits, buffers[-1])

    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("edge", ["zero", "nan"])
    def test_relu_masks_at_zero_and_nan_pre_activations_match_the_reference_bit_for_bit(self, edge, rows):
        # the kernel takes each ReLU mask from the layer's output, max(z, 0) > 0, where the
        # reference takes z > 0: both are false at +0.0, -0.0 and nan
        spec = MlpSpec((5, 4, 3, 3))
        params = init_params(spec, 70)
        (w0, b0), (w1, b1), _ = unflatten(params.values, spec)
        if edge == "zero":
            w0[:, 0], b0[0] = 0.0, 0.0
            w1[:, 2], b1[2] = 0.0, -0.0
        else:
            w0[3, 1] = np.nan
        batch = random_batch(np.random.default_rng(70 + rows), rows, spec)
        values, grads = loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None])
        ref_value, ref_grad = reference_loss_and_grad(params.values, spec, batch.inputs, batch.labels)
        assert values.view(np.int64)[0] == np.float64(ref_value).view(np.int64)
        assert np.array_equal(grads[0].view(np.int64), ref_grad.view(np.int64))
        assert np.isnan(ref_value) == (edge == "nan")

    def test_the_step_kernel_never_calls_forward_logits(self, monkeypatch):
        # the benchmark traces forward_logits at both names its callers look up
        import fedsim.federation as federation
        import fedsim.nn as nn

        calls = []

        def counted(*args):
            calls.append(args)
            return forward_logits(*args)

        monkeypatch.setattr(nn, "forward_logits", counted)
        monkeypatch.setattr(federation, "forward_logits", counted)
        spec = MlpSpec((5, 4, 3))
        params = init_params(spec, 71)
        batch = random_batch(np.random.default_rng(71), 6, spec)
        loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None])
        assert len(calls) == 0
        loss_raw(params.values[None], spec, batch.inputs[None], batch.labels[None])
        assert len(calls) >= 1
        calls.clear()
        federation.evaluate(params, synth_dataset(3, 5, 20, seed=71))
        assert len(calls) >= 1

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_a_stack_of_models_steps_each_as_alone_bit_for_bit(self, activation):
        # (k, P) weights on (k, m, d) batches: full, short, single-row, a smaller stack, full again
        spec = MlpSpec((9, 7, 6, 4), activation)
        rng = np.random.default_rng(37)
        workspace = Workspace(spec, 12, 4)
        for seed, (k, rows) in enumerate([(4, 12), (4, 5), (4, 1), (2, 12), (4, 12)]):
            stack = np.stack([init_params(spec, 60 + 4 * seed + i).values for i in range(k)])
            inputs = rng.uniform(0.0, 1.0, size=(k, rows, 9))
            inputs[:, :, ::3] = 0.0
            labels = rng.integers(0, 4, size=(k, rows))
            values, grads = loss_and_grad_raw(stack, spec, inputs, labels, workspace)
            assert grads.shape == (k, spec.parameter_count()) and values.shape == (k,)
            assert grads is workspace.fit(spec, k, rows).grad
            for i in range(k):
                ref_value, ref_grad = reference_loss_and_grad(stack[i], spec, inputs[i], labels[i])
                assert values[i] == ref_value
                assert np.array_equal(grads[i].view(np.int64), ref_grad.view(np.int64))
            assert np.array_equal(loss_raw(stack, spec, inputs, labels, workspace), values)
            assert np.array_equal(loss_raw(stack, spec, inputs, labels), values)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_with_no_loss_asked_the_kernel_returns_none_and_the_same_gradient_bits(self, rows):
        spec = MlpSpec((9, 7, 4))
        rng = np.random.default_rng(39)
        stack = np.stack([init_params(spec, 39 + i).values for i in range(3)])
        inputs, labels = rng.uniform(0.0, 1.0, size=(3, rows, 9)), rng.integers(0, 4, size=(3, rows))
        workspace = Workspace(spec, rows, 3)
        expected = loss_and_grad_raw(stack, spec, inputs, labels, workspace)[1].copy()
        value, grads = loss_and_grad_raw(stack, spec, inputs, labels, workspace, loss=False)
        assert value is None
        assert np.array_equal(grads.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("rows", [1, 5])
    def test_a_gradient_written_into_a_callers_stack_has_the_workspace_bits(self, rows):
        # and the workspace's own gradient buffer is left as it was
        spec = MlpSpec((9, 7, 6, 4))
        rng = np.random.default_rng(41)
        stack = np.stack([init_params(spec, 41 + i).values for i in range(3)])
        inputs, labels = rng.uniform(0.0, 1.0, size=(3, rows, 9)), rng.integers(0, 4, size=(3, rows))
        workspace = Workspace(spec, rows, 3)
        values, own = loss_and_grad_raw(stack, spec, inputs, labels, workspace)
        values, expected = values.copy(), own.copy()
        own[...] = np.nan
        target = np.empty_like(stack)
        got_values, grads = loss_and_grad_raw(stack, spec, inputs, labels, workspace, target)
        assert grads is target
        assert np.array_equal(got_values, values)
        assert np.array_equal(target.view(np.int64), expected.view(np.int64))
        assert np.isnan(own).all()

    def test_a_gradient_stack_must_be_c_contiguous(self):
        spec = MlpSpec((5, 4, 3))
        stack = np.stack([init_params(spec, 42 + i).values for i in range(2)])
        inputs, labels = np.zeros((2, 3, 5)), np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            loss_and_grad_raw(stack, spec, inputs, labels, Workspace(spec, 3, 2), np.empty((stack.shape[1], 2)).T)

    def test_a_stack_must_fit_the_workspace(self):
        spec = MlpSpec((5, 4, 3))
        stack = np.stack([init_params(spec, 38).values] * 3)
        inputs, labels = np.zeros((3, 4, 5)), np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ShapeMismatchError):
            loss_and_grad_raw(stack, spec, inputs, labels, Workspace(spec, 4, 2))
        with pytest.raises(ShapeMismatchError):
            loss_raw(stack, spec, inputs, labels, Workspace(spec, 3, 3))

    def test_loss_raw_batch_must_fit_the_workspace(self):
        spec = MlpSpec((5, 4, 3))
        params = init_params(spec, 36)
        batch = random_batch(np.random.default_rng(36), 6, spec)
        with pytest.raises(ShapeMismatchError):
            loss_raw(params.values[None], spec, batch.inputs[None], batch.labels[None], Workspace(spec, 5))

    def test_without_workspace_each_call_gets_its_own_gradient(self):
        spec = MlpSpec((5, 4, 3))
        params = init_params(spec, 32)
        batch = random_batch(np.random.default_rng(32), 6, spec)
        _, g1 = loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None])
        _, g2 = loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None])
        assert g1 is not g2
        assert np.array_equal(g1, g2)

    def test_batch_must_fit_the_workspace(self):
        spec = MlpSpec((5, 4, 3))
        params = init_params(spec, 33)
        batch = random_batch(np.random.default_rng(33), 6, spec)
        with pytest.raises(ShapeMismatchError):
            loss_and_grad_raw(params.values[None], spec, batch.inputs[None], batch.labels[None], Workspace(spec, 5))
        with pytest.raises(ShapeMismatchError):
            loss_and_grad_raw(
                params.values[None], spec, batch.inputs[None], batch.labels[None], Workspace(MlpSpec((5, 3)), 6)
            )


class TestSgdStep:
    def test_zero_grad_is_identity(self):
        spec = MlpSpec((1, 1))
        params = ParamVector(np.array([1.5, -0.5]), spec)
        grad = GradVector(np.zeros(2), spec)
        assert np.array_equal(sgd_step(params, grad, 0.3).values, params.values)

    def test_forced_arithmetic(self):
        spec = MlpSpec((1, 1))
        params = ParamVector(np.array([1.0, 2.0]), spec)
        grad = GradVector(np.array([0.5, -1.0]), spec)
        assert np.allclose(sgd_step(params, grad, 0.1).values, [0.95, 2.1])

    def test_two_steps_match_one_double_step(self):
        spec = MlpSpec((4, 3))
        params = init_params(spec, 5)
        grad = GradVector(np.random.default_rng(5).normal(size=spec.parameter_count()), spec)
        twice = sgd_step(sgd_step(params, grad, 0.05), grad, 0.05)
        once = sgd_step(params, GradVector(2 * grad.values, spec), 0.05)
        assert np.allclose(twice.values, once.values, atol=1e-16)


class TestServerApply:
    def _grad(self, spec, values):
        return GradVector(np.asarray(values, dtype=float), spec)

    def test_sgd_unit_rate_matches_sgd_step(self):
        spec = MlpSpec((2, 1))
        params = init_params(spec, 6)
        grad = self._grad(spec, [0.1, -0.2, 0.3])
        state = ServerOptimizerState(kind="sgd", lr=1.0)
        updated, new_state = server_apply(state, params, grad)
        assert np.array_equal(updated.values, sgd_step(params, grad, 1.0).values)
        assert new_state.step == 1

    def test_sgd_at_another_rate_matches_sgd_step(self):
        spec = MlpSpec((2, 1))
        params = init_params(spec, 6)
        grad = self._grad(spec, [0.1, -0.2, 0.3])
        updated, _ = server_apply(ServerOptimizerState(kind="sgd", lr=0.3), params, grad)
        assert np.array_equal(updated.values, sgd_step(params, grad, 0.3).values)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "rmsprop"])
    def test_leaves_its_inputs_unchanged(self, kind):
        spec = MlpSpec((3, 2))
        rng = np.random.default_rng(8)
        params = init_params(spec, 8)
        grad = self._grad(spec, rng.normal(size=spec.parameter_count()))
        m, v = rng.normal(size=(2, spec.parameter_count()))
        state = replace(ServerOptimizerState(kind=kind, lr=0.3), step=2, m=m, v=np.abs(v))
        before = [a.copy() for a in (params.values, grad.values, state.m, state.v)]
        server_apply(state, params, grad)
        for a, b in zip((params.values, grad.values, state.m, state.v), before):
            assert np.array_equal(a, b)

    def test_zero_pseudo_gradient_is_identity(self):
        spec = MlpSpec((2, 1))
        params = init_params(spec, 7)
        state = ServerOptimizerState(kind="sgd", lr=0.7)
        updated, _ = server_apply(state, params, self._grad(spec, [0.0, 0.0, 0.0]))
        assert np.array_equal(updated.values, params.values)

    def test_adam_matches_hand_recurrence(self):
        spec = MlpSpec((2, 1))
        w = np.array([0.5, -1.0, 2.0])
        g = np.array([1.0, -2.0, 0.5])
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

        params = ParamVector(w, spec)
        state = ServerOptimizerState(kind="adam", lr=lr, beta1=b1, beta2=b2, eps=eps)

        m = np.zeros(3)
        v = np.zeros(3)
        expected = w.copy()
        for t in range(1, 6):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            step = lr * m_hat / (np.sqrt(v_hat) + eps)
            expected -= step

            before = params.values.copy()
            params, state = server_apply(state, params, self._grad(spec, g))
            assert np.array_equal(params.values, expected)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            # repeated identical pseudo-gradients always move against their sign
            assert np.all(np.sign(params.values - before) == -np.sign(g))
        assert state.step == 5

    def test_rmsprop_matches_hand_recurrence(self):
        spec = MlpSpec((2, 1))
        w = np.array([1.0, 1.0, 1.0])
        g = np.array([0.5, -0.25, 1.5])
        lr, rho, eps = 0.05, 0.9, 1e-8

        params = ParamVector(w, spec)
        state = ServerOptimizerState(kind="rmsprop", lr=lr, rho=rho, eps=eps)

        v = np.zeros(3)
        expected = w.copy()
        for _ in range(4):
            v = rho * v + (1 - rho) * g * g
            expected -= lr * g / (np.sqrt(v) + eps)
            params, state = server_apply(state, params, self._grad(spec, g))
            assert np.array_equal(params.values, expected)
            assert state.m is None and np.array_equal(state.v, v)

    @pytest.mark.parametrize("kind", ["adam", "rmsprop"])
    def test_random_steps_match_the_recurrence_bit_for_bit(self, kind):
        # entries spread over six decades, so that a reordered operation rounds differently somewhere
        spec = MlpSpec((20, 10))
        rng = np.random.default_rng(9)
        lr, b1, b2, rho, eps = 0.03, 0.85, 0.99, 0.8, 1e-3
        state = ServerOptimizerState(kind=kind, lr=lr, beta1=b1, beta2=b2, rho=rho, eps=eps)
        params = init_params(spec, 9)
        w = params.values.copy()
        m = v = np.zeros_like(w)
        for t in range(1, 4):
            g = rng.normal(size=w.size) * 10.0 ** rng.integers(-3, 3, size=w.size)
            params, state = server_apply(state, params, self._grad(spec, g))
            if kind == "adam":
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
                assert np.array_equal(state.m, m)
            else:
                v = rho * v + (1 - rho) * g * g
                w = w - lr * g / (np.sqrt(v) + eps)
            assert np.array_equal(params.values, w)
            assert np.array_equal(state.v, v)


class TestInvariantsAndProperties:
    def test_gradients_match_finite_differences_many_nets(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            spec = MlpSpec((20, 8, 5))
            params = init_params(spec, 100 + trial)
            batch = random_batch(rng, 6, spec)
            _, grad = loss_grad(params, batch)
            fd = finite_difference_grad(params, batch)
            assert np.all(np.abs(grad.values - fd) <= np.maximum(1e-6, 1e-4 * np.abs(fd)))

    def test_small_step_never_increases_loss_on_smooth_net(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            spec = MlpSpec((6, 5, 4), activation="identity")
            params = init_params(spec, 200 + trial)
            batch = random_batch(rng, 12, spec)
            before, grad = loss_grad(params, batch)
            after = loss(sgd_step(params, grad, 1e-3), batch)
            assert after <= before + 1e-9

    def test_operations_are_pure_and_repeatable(self):
        spec = MlpSpec((7, 6, 3))
        params = init_params(spec, 12)
        batch = random_batch(np.random.default_rng(12), 9, spec)
        snapshot = params.values.copy()
        l1, g1 = loss_grad(params, batch)
        l2, g2 = loss_grad(params, batch)
        assert l1 == l2
        assert np.array_equal(g1.values, g2.values)
        assert np.array_equal(params.values, snapshot)

    def test_shape_law_holds_after_every_operation(self):
        spec = MlpSpec((5, 4, 3))
        params = init_params(spec, 13)
        batch = random_batch(np.random.default_rng(13), 5, spec)
        _, grad = loss_grad(params, batch)
        stepped = sgd_step(params, grad, 0.1)
        served, _ = server_apply(ServerOptimizerState(kind="adam", lr=0.1), params, grad)
        for vec in (params, grad, stepped, served):
            assert vec.values.size == spec.parameter_count()
            assert np.all(np.isfinite(vec.values))

    def test_non_finite_vectors_are_rejected(self):
        spec = MlpSpec((1, 1))
        with pytest.raises(ValueError):
            ParamVector(np.array([np.nan, 0.0]), spec)
        for bad in ([np.inf, 1.0], [2.0, -np.inf], [np.inf, -np.inf], [0.0, np.nan]):
            for cls in (ParamVector, GradVector):
                with pytest.raises(ValueError, match="non-finite"):
                    cls(np.array(bad), spec)
        bigger = MlpSpec((4, 3))
        for at in (0, 7, 14):
            for value in (np.nan, np.inf, -np.inf):
                values = np.full(bigger.parameter_count(), 1e308)
                values[at] = value
                with pytest.raises(ValueError, match="non-finite"):
                    ParamVector(values, bigger)
        with pytest.raises(ShapeMismatchError):
            ParamVector(np.zeros(3), spec)

    def test_huge_finite_vectors_are_accepted(self):
        # entries whose sum overflows are still finite
        spec = MlpSpec((4, 3))
        for sign in (1.0, -1.0):
            values = np.full(spec.parameter_count(), sign * 1e308)
            assert np.array_equal(ParamVector(values, spec).values, values)
            assert np.array_equal(GradVector(values, spec).values, values)
