"""Minimal reverse-mode automatic differentiation over numpy arrays.

Operations are recorded on a :class:`Tape` in execution order; reverse
iteration over the recorded ops is reverse topological order, so a single
backward sweep accumulates exact gradients.  A sweep may be restricted to
some leaves (``backward(root, wrt=...)``): the others are marked as needing
no gradient, and the convolutions then skip their weight and bias products.
Integrated gradients reads only the input's gradient and sweeps that way;
training takes every gradient.  Only the handful of ops the miniature
forecaster needs are provided, each with a hand-written vector-Jacobian
product; the two loss ops take value and gradient from the loss kernels in
:mod:`raincast.probcast`.

The convolutions are GEMMs on NCHW float64 arrays.  ``conv1x1`` multiplies
the (C, H*W) planes of each sample.  ``conv3x3`` lays out channels-first
(9C, B*H*W) im2col columns twice: of its input in the forward and of the
incoming gradient in the backward.  Its forward, weight gradient and input
gradient are one 2-D GEMM each, and no columns stay alive on the tape.
"""

import numpy as np

from .probcast import _masked_bce, _masked_softmax_ce
from .raster import depth_to_space_array, space_to_depth_array


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign of v."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _im2col(x: np.ndarray) -> np.ndarray:
    """(9C, B*H*W) columns of a same-padded 3x3 conv over x (B,C,H,W).

    Row 9c + 3ky + kx holds channel c at tap (ky, kx), that is x[:, c]
    shifted by (ky - 1, kx - 1), so ``w.reshape(O, 9C)`` multiplies the
    columns directly; the columns run over (b, h, w).  Built from nine slice
    copies of the zero-padded (C, B, H+2, W+2) input (Chellapilla et al.
    2006).
    """
    B, C, H, W = x.shape
    xp = np.zeros((C, B, H + 2, W + 2))
    xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    cols = np.empty((C, 3, 3, B, H, W))
    for ky in range(3):
        for kx in range(3):
            cols[:, ky, kx] = xp[:, :, ky:ky + H, kx:kx + W]
    return cols.reshape(9 * C, B * H * W)


class Tensor:
    """A tape node: a float64 array plus its accumulated gradient.

    ``needs_grad`` is False on a leaf the current backward sweep was not
    asked for; ``add_grad`` then drops what it is given.
    """

    __slots__ = ("value", "grad", "needs_grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.needs_grad = True

    @property
    def shape(self):
        return self.value.shape

    def add_grad(self, g):
        if not self.needs_grad:
            return
        if self.grad is None:
            # 0 + g, as accumulating into zeros would give: -0.0 becomes +0.0,
            # and the new array never aliases g
            self.grad = np.add(g, 0.0, out=np.empty_like(self.value))
        else:
            self.grad += g


class Tape:
    """Records each op's output with the closure that back-propagates into it.

    Every op computes its forward value once, when it is recorded; the tape
    keeps only what the backward sweep needs.
    """

    def __init__(self):
        self._ops = []
        self._leaves = []

    def leaf(self, value) -> Tensor:
        t = Tensor(value)
        self._leaves.append(t)
        return t

    def _push(self, out: Tensor, bwd):
        self._ops.append((out, bwd))

    def backward(self, root: Tensor, wrt=None):
        """Accumulate d(root)/d(node) into .grad of every op output and of
        the leaves in ``wrt`` (every leaf when ``wrt`` is None).

        The other leaves keep ``grad = None`` and are marked as needing
        none, so the ops that feed them skip that work: a conv whose weight
        and bias are such leaves runs only its input-gradient product.
        """
        keep = None if wrt is None else set(wrt)
        for t in self._leaves:
            t.grad = None
            t.needs_grad = keep is None or t in keep
        for out, _ in self._ops:
            out.grad = None
        root.grad = np.ones_like(root.value)
        for out, bwd in reversed(self._ops):
            if out.grad is not None:
                bwd(out.grad)

    # ------------------------------------------------------------------ ops

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ValueError("add requires equal shapes")
        out = Tensor(a.value + b.value)

        def bwd(g):
            a.add_grad(g)
            b.add_grad(g)

        self._push(out, bwd)
        return out

    def reshape(self, a: Tensor, shape) -> Tensor:
        old = a.value.shape
        out = Tensor(a.value.reshape(shape))
        self._push(out, lambda g: a.add_grad(g.reshape(old)))
        return out

    def sigmoid(self, a: Tensor) -> Tensor:
        out = Tensor(_sigmoid(a.value))

        def bwd(g):
            s = out.value
            a.add_grad(g * s * (1.0 - s))

        self._push(out, bwd)
        return out

    def silu(self, a: Tensor) -> Tensor:
        """x * sigmoid(x): the smooth pointwise nonlinearity used throughout."""
        s = _sigmoid(a.value)
        out = Tensor(a.value * s)

        def bwd(g):
            a.add_grad(g * (s + a.value * s * (1.0 - s)))

        self._push(out, bwd)
        return out

    def conv1x1(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Pointwise conv: x (B,C,H,W), w (O,C), b (O); one batched GEMM each way."""
        B, C, H, W = x.value.shape
        O = w.value.shape[0]
        xm = x.value.reshape(B, C, H * W)
        out = Tensor((w.value @ xm).reshape(B, O, H, W) + b.value[:, None, None])

        def bwd(g):
            gm = g.reshape(B, O, H * W)
            if b.needs_grad:
                b.add_grad(g.sum(axis=(0, 2, 3)))
            if w.needs_grad:
                w.add_grad(np.tensordot(gm, xm, axes=([0, 2], [0, 2])))  # O,C
            x.add_grad((w.value.T @ gm).reshape(B, C, H, W))

        self._push(out, bwd)
        return out

    def conv3x3(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Same-padded 3x3 conv: x (B,C,H,W), w (O,C,3,3), b (O).

        The forward, the weight gradient and the input gradient are one 2-D
        GEMM each over :func:`_im2col` columns, laid out channels-first as
        (9C, B*H*W).  The columns of x are built once, in the forward, and
        those of g once, in the backward:

        - forward: ``w.reshape(O, 9C) @ cols(x)``
        - weight gradient: ``cols(g) @ x(C, B*H*W).T``.  Row (o, ky, kx) of
          the product is g shifted by (ky - 1, kx - 1) against x, which is
          tap (2 - ky, 2 - kx) of the kernel, so the rows are read back
          flipped.
        - input gradient: the flipped, transposed kernel (C, 9O) times
          ``cols(g)``, a full correlation of g.  Each input pixel sums over
          (o, ky, kx) in one GEMM, so gradients keep the bits of a direct
          sum in that order; a col2im scatter-add of ``w.T @ g`` would sum
          over o first and then over the nine taps.

        No columns stay alive on the tape: at B=8 they are nine times the
        input.  The weight and bias products run only when their leaves
        need a gradient.
        """
        B, C, H, W = x.value.shape
        O = w.value.shape[0]
        y = w.value.reshape(O, 9 * C) @ _im2col(x.value)  # O, B*H*W
        value = np.empty((B, O, H, W))
        np.add(y.reshape(O, B, H, W).transpose(1, 0, 2, 3), b.value[:, None, None], out=value)
        out = Tensor(value)

        def bwd(g):
            if b.needs_grad:
                b.add_grad(g.sum(axis=(0, 2, 3)))
            gcols = _im2col(g)
            if w.needs_grad:
                xcf = x.value.transpose(1, 0, 2, 3).reshape(C, B * H * W)
                gw = (gcols @ xcf.T).reshape(O, 3, 3, C)
                w.add_grad(gw[:, ::-1, ::-1].transpose(0, 3, 1, 2))
            wt = w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, 9 * O)
            x.add_grad((wt @ gcols).reshape(C, B, H, W).transpose(1, 0, 2, 3))

        self._push(out, bwd)
        return out

    def space_to_depth(self, x: Tensor, block: int) -> Tensor:
        out = Tensor(space_to_depth_array(x.value, block))
        self._push(out, lambda g: x.add_grad(depth_to_space_array(g, block)))
        return out

    def depth_to_space(self, x: Tensor, block: int) -> Tensor:
        out = Tensor(depth_to_space_array(x.value, block))
        self._push(out, lambda g: x.add_grad(space_to_depth_array(g, block)))
        return out

    def weighted_sum(self, x: Tensor, weights: np.ndarray) -> Tensor:
        """Scalar sum(x * weights) for a constant weight array."""
        weights = np.asarray(weights, dtype=np.float64)
        out = Tensor(np.sum(x.value * weights))
        self._push(out, lambda g: x.add_grad(float(g) * weights))
        return out

    # The two losses record their gradient with the value: the probcast
    # kernels compute both from one pass over the clamped inputs.

    def masked_bce(self, q: Tensor, targets: np.ndarray, sel: np.ndarray,
                   weights: np.ndarray) -> Tensor:
        """Scalar sum_sel(weights * BCE(clip(q), targets)) / count(sel).

        targets, sel and weights are constants broadcastable to q's shape;
        see :func:`raincast.probcast._masked_bce`.
        """
        value, _, grad = _masked_bce(q.value, targets, sel, weights, with_grad=True)
        out = Tensor(value)
        self._push(out, lambda g: q.add_grad(float(g) * grad))
        return out

    def masked_softmax_ce(self, logits: Tensor, labels: np.ndarray, valid: np.ndarray,
                          weights: np.ndarray, axis: int) -> Tensor:
        """Scalar sum_valid(weights * CE(softmax(logits), labels)) / count(valid).

        labels holds integer class indices along ``axis``; valid and weights
        broadcast to the label shape.  See :func:`raincast.probcast._masked_softmax_ce`.
        """
        value, _, grad = _masked_softmax_ce(logits.value, labels, valid, weights, axis,
                                            with_grad=True)
        out = Tensor(value)
        self._push(out, lambda g: logits.add_grad(float(g) * grad))
        return out
