"""Machine speed, measured beside the program.

The 2-vCPU guest the benchmark was built on runs between 1.0x and 1.9x of its
best speed as the host's other tenants come and go.  The speed changes within
tens of milliseconds and drifts over seconds to minutes; process CPU time
moves with wall time, so it is no way round.  Wall times of one program
therefore spread across runs by more than a regression worth catching.
``SpeedClock`` runs a fixed reference kernel, which never touches the
program, before and after each program call.  A call's *reference seconds*
are its wall seconds scaled by how much slower than ``REF_S`` the kernel ran
on either side of it.  A program change moves reference seconds as it moves
wall seconds; a slower machine slows both the call and the kernel, and
cancels out.

The kernel mixes the kinds of work raincast does, so that contention slows
it about as much as it slows the program: a float32 GEMM of the B=8 conv3x3
im2col shape, the windowed copy that feeds it, elementwise numpy on the same
activations, small-array numpy calls where per-call cost dominates, and a
pure-Python loop of attribute lookups and closure calls.
"""

import time

import numpy as np

# Reference seconds are seconds of a machine on which the kernel takes REF_S.
# 0.1 s is a round figure near its median on the machine the benchmark was
# built on (Intel Xeon 2.0 GHz KVM guest, one thread, scipy-openblas 0.3.31),
# so reference seconds read close to that machine's seconds.
REF_S = 0.1
STALE_S = 0.25  # a reference older than this is measured again before a call


class _Node:
    def __init__(self, value):
        self.value = value
        self.grad = 0.0


def _push(node):
    def backward(g):
        node.grad = node.grad + g * node.value
    return backward


class SpeedClock:
    """Times program calls in wall and reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 34, 34, 32), dtype=np.float32)
        self.w = rng.standard_normal((288, 32), dtype=np.float32) * 0.05
        self.small = [rng.standard_normal((1, 6, 6, 32), dtype=np.float32) for _ in range(8)]
        self.pushes = [_push(_Node(float(i))) for i in range(64)]
        self.reference()  # first touch: page faults and BLAS start-up stay out of the samples
        self.samples = []  # seconds of every reference run, in order
        self.last_s, self.last_at = self.reference(), time.perf_counter()

    def _kernel(self) -> float:
        x = self.x
        for _ in range(6):
            cols = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
            cols = np.ascontiguousarray(cols.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, 288)
            y = (cols @ self.w).reshape(8, 32, 32, 32)
            y = y / (1.0 + np.exp(-y))
        acc = np.zeros_like(self.small[0])
        for _ in range(70):
            for s in self.small:
                acc = acc + np.pad(s, ((0, 0), (1, 1), (1, 1), (0, 0)))[:, 1:-1, 1:-1] * 0.5
        for _ in range(3600):
            for f in self.pushes:
                f(1e-3)
        return float(y[0, 0, 0, 0]) + float(acc[0, 0, 0, 0])

    def reference(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def time(self, fn) -> tuple[float, float]:
        """Run ``fn()``; return its wall seconds and its reference seconds."""
        if time.perf_counter() - self.last_at > STALE_S:
            self.last_s = self.reference()
            self.samples.append(self.last_s)
        before = self.last_s
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        self.last_s, self.last_at = self.reference(), time.perf_counter()
        self.samples.append(self.last_s)
        return wall, wall * REF_S / (0.5 * (before + self.last_s))
