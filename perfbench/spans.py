"""Spans around raincast's public functions, recorded from outside the program.

Every wrapped function is patched where its caller looks it up (for example
``raincast.pipeline.build_report`` for the stage that calls it, and
``raincast.verify.fss_components`` for ``build_report``), so the program's own
files stay untouched.  Spans live in memory as (name, start, end, parent, run)
tuples and are written out once, when the benchmark ends.  Counters ride on
the same wrappers and are computed from argument shapes, so they repeat
exactly from run to run.
"""

import contextlib
import functools
import time
import weakref
from collections import defaultdict

import raincast.baseline
import raincast.micromodel
import raincast.pipeline
import raincast.verify
from raincast.autodiff import Tape

STAGES = raincast.pipeline.STAGES

F64 = 8  # bytes per element: the tape computes in float64


def _conv3x3_fwd(tracer, args, kwargs, result):
    tape, x, w = args[0], args[1], args[2]
    b, c, h, wd = x.shape
    o = w.shape[0]
    flop = 2.0 * b * h * wd * c * o * 9
    # traffic of an im2col convolution: read x, write and read the 9-tap
    # column matrix, read the weights, write the output
    moved = F64 * (b * c * h * wd + 2 * b * c * 9 * h * wd + o * c * 9 + b * o * h * wd)
    tracer.count("autodiff.conv3x3.fwd_flop", flop)
    pending = tracer.conv_pending.setdefault(tape, [0.0, 0.0])
    pending[0] += flop
    pending[1] += moved
    tracer.count("autodiff.conv3x3.flop", flop)
    tracer.count("autodiff.conv3x3.bytes", moved)


def _backward(tracer, args, kwargs, result):
    # the backward pass of a conv costs two products of the forward's size
    flop, moved = tracer.conv_pending.pop(args[0], (0.0, 0.0))
    tracer.count("autodiff.conv3x3.flop", 2.0 * flop)
    tracer.count("autodiff.conv3x3.bytes", 2.0 * moved)


def _fss_components(tracer, args, kwargs, result):
    pred = args[0]
    window = int(args[2] if len(args) > 2 else kwargs["window"])
    tracer.count("verify.fss.cell_sums", pred.shape[-2] * pred.shape[-1] * window * window)


def _estimate_motion(tracer, args, kwargs, result):
    frames = args[0]
    search = int(args[1] if len(args) > 1 else kwargs.get("search", 16))
    tracer.count("baseline.shifts_evaluated", (len(frames) - 1) * (2 * search + 1) ** 2)
    tracer.count("baseline.motions", 1)
    tracer.count("baseline.low_confidence", int(result.low_confidence))


# (owner, attribute, span name, counter).  The owner is where the caller
# looks the name up; one span name may be patched into several owners.
PATCHES = [
    *[(raincast.pipeline, f"stage_{s}", f"pipeline.{s}", None) for s in STAGES],
    (raincast.pipeline, "gen_sequence", "synthdata.gen_sequence", None),
    (raincast.pipeline, "make_splits", "synthdata.make_splits", None),
    (raincast.pipeline, "save_raster", "raster.save_raster", None),
    (raincast.pipeline, "load_raster", "raster.load_raster", None),
    (raincast.pipeline, "train", "micromodel.optimizer", None),
    (raincast.pipeline, "predict", "micromodel.predict", None),
    (raincast.pipeline, "save_checkpoint", "micromodel.save_checkpoint", None),
    (raincast.pipeline, "load_checkpoint", "micromodel.load_checkpoint", None),
    (raincast.micromodel, "batch_loss", "micromodel.batch_loss", None),
    (raincast.pipeline, "exceedance_masks", "intensity.exceedance_masks", None),
    (raincast.micromodel, "exceedance_masks", "intensity.exceedance_masks", None),
    (raincast.pipeline, "calibrate_thresholds", "probcast.calibrate_thresholds", None),
    (raincast.pipeline, "extract_intensity", "probcast.extract_intensity", None),
    (raincast.verify, "crps", "probcast.crps", None),
    (raincast.pipeline, "build_report", "verify.build_report", None),
    (raincast.verify, "fss_components", "verify.fss_components", _fss_components),
    (raincast.verify, "accumulate_confusion", "verify.accumulate_confusion", None),
    (raincast.verify, "pooled_confusion", "verify.pooled_confusion", None),
    (raincast.verify, "ssim", "verify.ssim", None),
    (raincast.baseline, "estimate_motion", "baseline.estimate_motion", _estimate_motion),
    (raincast.baseline, "advect", "baseline.advect", None),
    (raincast.baseline, "persistence", "baseline.persistence", None),
    (raincast.pipeline, "integrated_gradients", "attribution.integrated_gradients", None),
    (Tape, "conv3x3", "autodiff.conv3x3.fwd", _conv3x3_fwd),
    (Tape, "conv1x1", "autodiff.conv1x1.fwd", None),
    (Tape, "silu", "autodiff.silu.fwd", None),
    (Tape, "sigmoid", "autodiff.sigmoid.fwd", None),
    (Tape, "add", "autodiff.add.fwd", None),
    (Tape, "masked_bce", "autodiff.masked_bce.fwd", None),
    (Tape, "backward", "autodiff.backward", _backward),
]

SPAN_NAMES = list(dict.fromkeys(p[2] for p in PATCHES))
LAYER_SPANS = [n for n in SPAN_NAMES if not n.startswith("pipeline.")]


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id)
        self.run_phase = {}  # run id -> "setup" | "timed"
        self.counters = defaultdict(float)  # (run id, counter) -> value
        self.conv_pending = weakref.WeakKeyDictionary()  # tape -> [flop, bytes]
        self._stack = []
        self._run = None

    def count(self, name: str, value: float) -> None:
        self.counters[(self._run, name)] += value

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            parent = self._stack[-2] if len(self._stack) > 1 else -1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._run)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def run(self, run_id: int, phase: str):
        """Install every patch for one set-up or timed repetition."""
        self._run = run_id
        self.run_phase[run_id] = phase
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for owner, attr, name, counter in PATCHES:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), counter))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            self._run = None

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """Per span, its duration minus the part its child spans cover."""
        self_t = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def self_sum_error(self) -> float:
        """Largest relative gap, over top-level spans, between the span's wall
        time and the sum of the self times of every span beneath it."""
        self_t = self.self_times()
        subtree = list(self_t)
        for idx in range(len(self.spans) - 1, -1, -1):  # children follow parents
            parent = self.spans[idx][3]
            if parent >= 0:
                subtree[parent] += subtree[idx]
        worst = 0.0
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent < 0 and end > start:
                worst = max(worst, abs(subtree[idx] - (end - start)) / (end - start))
        return worst

    def layer_metrics(self) -> dict:
        """Per-layer numbers per unit of work.

        A name that ran in the timed phase is reported per timed repetition;
        one that ran only in set-up is reported per set-up.
        """
        units = defaultdict(int)
        for phase in self.run_phase.values():
            units[phase] += 1
        self_t = self.self_times()
        agg = defaultdict(lambda: [0.0, 0.0, 0])  # (name, phase) -> [self, wall, calls]
        for (name, start, end, _, run), st in zip(self.spans, self_t):
            a = agg[(name, self.run_phase[run])]
            a[0] += st
            a[1] += end - start
            a[2] += 1

        def per_unit(name):
            for phase in ("timed", "setup"):
                if (name, phase) in agg:
                    s, wall, calls = agg[(name, phase)]
                    n = units[phase]
                    return s / n, wall / n, calls / n
            return 0.0, 0.0, 0.0

        out = {}
        pipeline_self = 0.0
        for stage in STAGES:
            s, wall, _ = per_unit(f"pipeline.{stage}")
            out[f"pipeline.{stage}_s"] = (wall, "s", "lower")
            pipeline_self += s
        out["pipeline.self_ms"] = (1e3 * pipeline_self, "ms", "lower")
        for name in LAYER_SPANS:
            s, _, calls = per_unit(name)
            out[f"{name}_ms"] = (1e3 * s, "ms", "lower")
            out[f"{name}.calls"] = (calls, "count", "lower")
            out[f"{name}.ms_per_call"] = (1e3 * s / calls if calls else 0.0, "ms", "lower")

        def counter_per_unit(counter):
            for phase in ("timed", "setup"):
                runs = [r for r, p in self.run_phase.items() if p == phase]
                total = sum(self.counters.get((r, counter), 0.0) for r in runs)
                if total:
                    return total / len(runs)
            return 0.0

        gflop = counter_per_unit("autodiff.conv3x3.flop") / 1e9
        fwd_gflop = counter_per_unit("autodiff.conv3x3.fwd_flop") / 1e9
        fwd_s = out["autodiff.conv3x3.fwd_ms"][0] / 1e3
        out["autodiff.conv3x3.gflop"] = (gflop, "GFLOP", "lower")
        out["autodiff.conv3x3.mb_moved"] = (counter_per_unit("autodiff.conv3x3.bytes") / 1e6, "MB", "lower")
        out["autodiff.conv3x3.fwd_gflop_per_s"] = (fwd_gflop / fwd_s if fwd_s else 0.0, "GFLOP/s", "higher")
        out["verify.fss.cell_sums"] = (counter_per_unit("verify.fss.cell_sums"), "count", "lower")
        out["baseline.shifts_evaluated"] = (counter_per_unit("baseline.shifts_evaluated"), "count", "lower")
        motions = sum(v for (_, c), v in self.counters.items() if c == "baseline.motions")
        low = sum(v for (_, c), v in self.counters.items() if c == "baseline.low_confidence")
        out["baseline.low_confidence_ratio"] = (low / motions if motions else 0.0, "ratio", "lower")
        out["trace.self_sum_error_pct"] = (100.0 * self.self_sum_error(), "%", "lower")
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "run"],
            "run_phase": {str(k): v for k, v in self.run_phase.items()},
            "spans": self.spans,
            "counters": [[run, name, v] for (run, name), v in sorted(self.counters.items())],
        }
