import numpy as np

from raincast.autodiff import Tape


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def check_op(build, *leaf_values, rtol=1e-6):
    """build(tape, *leaves) -> output tensor; compares analytic grads of the
    summed output against finite differences for every leaf."""
    rng = np.random.default_rng(0)
    for i, base in enumerate(leaf_values):
        tape = Tape()
        leaves = [tape.leaf(v.copy()) for v in leaf_values]
        out = build(tape, *leaves)
        probe = rng.normal(size=out.value.shape)
        scalar = tape.weighted_sum(out, probe)
        tape.backward(scalar)
        analytic = leaves[i].grad

        def f(x):
            vals = [v.copy() for v in leaf_values]
            vals[i] = x
            t2 = Tape()
            l2 = [t2.leaf(v) for v in vals]
            o2 = build(t2, *l2)
            return float(np.sum(o2.value * probe))

        numeric = numeric_grad(f, base)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=1e-8)


class TestOpGradients:
    def test_add(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        check_op(lambda t, x, y: t.add(x, y), a, b)

    def test_reshape(self):
        x = np.random.default_rng(2).normal(size=(2, 6))
        check_op(lambda t, a: t.reshape(a, (3, 4)), x)

    def test_sigmoid(self):
        x = np.random.default_rng(3).normal(size=(4, 4))
        check_op(lambda t, a: t.sigmoid(a), x)

    def test_silu(self):
        x = np.random.default_rng(4).normal(size=(4, 4))
        check_op(lambda t, a: t.silu(a), x)

    def test_conv1x1(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        check_op(lambda t, xx, ww, bb: t.conv1x1(xx, ww, bb), x, w, b)

    def test_conv3x3(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 5, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        check_op(lambda t, xx, ww, bb: t.conv3x3(xx, ww, bb), x, w, b)

    def test_space_to_depth_round(self):
        x = np.random.default_rng(7).normal(size=(1, 2, 4, 4))
        check_op(lambda t, a: t.space_to_depth(a, 2), x)
        check_op(lambda t, a: t.depth_to_space(a, 2), np.random.default_rng(8).normal(size=(1, 8, 2, 2)))

    def test_masked_bce(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(0.05, 0.95, size=(1, 2, 3, 4, 4))
        targets = (rng.uniform(size=q.shape) > 0.5).astype(float)
        sel = rng.uniform(size=q.shape) > 0.3
        weights = np.broadcast_to(rng.uniform(0.5, 2.0, size=(1, 2, 1, 1, 1)), q.shape).copy()

        def build(t, a):
            return t.masked_bce(a, targets, sel, weights)

        check_op(build, q)

    def test_masked_softmax_ce(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(1, 2, 4, 3, 3))
        labels = rng.integers(0, 4, size=(1, 2, 3, 3))
        valid = rng.uniform(size=(1, 2, 3, 3)) > 0.2
        weights = rng.uniform(0.5, 2.0, size=(1, 2, 1, 1))

        def build(t, a):
            return t.masked_softmax_ce(a, labels, valid, weights, axis=2)

        check_op(build, logits)


class TestTapeMechanics:
    def build_chain(self, tape, x, w, b):
        h = tape.conv3x3(x, w, b)
        h = tape.silu(h)
        return tape.sigmoid(h)

    def test_backward_is_repeatable(self):
        rng = np.random.default_rng(12)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(1, 2, 4, 4)))
        w = tape.leaf(rng.normal(size=(2, 2, 3, 3)))
        b = tape.leaf(rng.normal(size=2))
        out = self.build_chain(tape, x, w, b)
        scalar = tape.weighted_sum(out, np.ones_like(out.value))
        tape.backward(scalar)
        g1 = x.grad.copy()
        tape.backward(scalar)
        np.testing.assert_array_equal(x.grad, g1)

    def test_constant_loss_has_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        scalar = tape.weighted_sum(x, np.zeros((2, 2)))
        tape.backward(scalar)
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_gradient_scales_linearly_with_loss(self):
        rng = np.random.default_rng(13)
        probe = rng.normal(size=(2, 2))
        x0 = rng.normal(size=(2, 2))
        for scale in (1.0, 2.0):
            tape = Tape()
            x = tape.leaf(x0)
            y = tape.sigmoid(x)
            s = tape.weighted_sum(y, scale * probe)
            tape.backward(s)
            if scale == 1.0:
                g1 = x.grad.copy()
            else:
                np.testing.assert_allclose(x.grad, 2.0 * g1, rtol=1e-15)
