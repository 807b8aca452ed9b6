"""The three workloads: what each sets up, what it times, and how it checks
its outputs.  Why each exists, and which metric each layer should move, is
written down in README.md beside this file.

Every workload uses the README demo config (32x32 scene, C=32, 4 blocks,
B=8, t_in 4, t_out 6, K 5, thresholds 0.5/1/2, windows 2/10/20 km, pool 4)
with its own, recorded, step count and timeline.  The benchmark seed becomes
the config ``seed``, which seeds the scene and the model.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from raincast.pipeline import MODELS, RunConfig, _window_origins, run_stage

DAYS = 20.0  # the demo timeline: 27 val and 27 test windows
TRAIN_STEPS = 16  # train: steps of one timed train stage
LOSS_TAIL = 8  # train_loss: mean over the last steps of a training run
SETUP_STEPS = 10  # score, explain: the short training run of set-up
IG_STEPS = 64  # explain: 64 midpoints + 2 endpoints = 66 tapes per call
TARGETS = ((0, 0), (5, 2), (2, 4))  # explain: (lead, class index) cycled per call
ATTRIBUTION_GAP_BOUND = 1e-6  # explain: largest IG completeness gap accepted


def config_doc(seed: int, steps: int) -> dict:
    return {
        "seed": seed,
        "bins": {"edges": [0.2, 0.5, 1.0, 2.0, 4.0], "top_width": 2.0},
        "thresholds": [0.5, 1.0, 2.0],
        "windows_km": [2.0, 10.0, 20.0],
        "pools": [4],
        "timeline": {"days": DAYS, "step_min": 60.0},
        "splits": {"cycle_days": [12.0, 2.0, 2.0], "blackout_h": 12.0},
        "scene": {"h": 32, "w": 32, "n_cells": 3, "velocity": [2.0, 0.0],
                  "amp_range": [1.0, 8.0], "radius_range": [3.0, 6.0],
                  "noise_sigma": 0.05},
        "model": {"t_in": 4, "t_out": 6, "k_classes": 5, "channels": 32,
                  "n_blocks": 4, "steps": steps, "batch_size": 8, "use_ema": False},
    }


def _timed(clock, stage: str, cfg: RunConfig, out: Path, **kwargs) -> tuple[float, float]:
    """Wall and reference seconds (see speed.py) of one ``run_stage`` call."""
    return clock.time(lambda: run_stage(stage, cfg, out, **kwargs))


def _total(timings) -> tuple[float, float]:
    walls, refs = zip(*timings)
    return sum(walls), sum(refs)


def _loss_curve(out: Path) -> tuple[bytes, list]:
    raw = (out / "loss_curve.csv").read_bytes()
    return raw, [float(line.split(",")[1]) for line in raw.decode().split()[1:]]


def _tail_mean(losses: list) -> float:
    return sum(losses[-LOSS_TAIL:]) / len(losses[-LOSS_TAIL:])


def artifact_digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@dataclass
class Rep:
    """One timed repetition: its wall and reference seconds, work items and outputs."""

    wall_s: float
    ref_s: float
    items: int
    stage_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # name -> bytes, compared across reps
    values: dict = field(default_factory=dict)  # named quality numbers
    problems: list = field(default_factory=list)  # failed output checks


class Train:
    """Timed: the ``train`` stage at TRAIN_STEPS steps, B=8."""

    name = "train"
    unit = "train stage"

    def __init__(self, seed: int, reference: dict, clock):
        self.clock = clock
        self.cfg = RunConfig.from_dict(config_doc(seed, TRAIN_STEPS))
        self.ref = reference.get(str(seed), {}).get("train_loss")
        self.rel_tol = reference["rel_tol"]["train_loss"]

    def setup(self, out: Path) -> tuple[tuple[float, float], dict]:
        """Set up in ``out``; return its (wall, reference) seconds and values."""
        return _total(_timed(self.clock, s, self.cfg, out) for s in ("gen", "split")), {}

    def rep(self, out: Path, k: int) -> Rep:
        wall, ref = _timed(self.clock, "train", self.cfg, out)
        raw, losses = _loss_curve(out)
        loss = _tail_mean(losses)
        rep = Rep(wall, ref, TRAIN_STEPS * self.cfg.model.batch_size, {"train": wall},
                  {"loss_curve.csv": raw}, {"train_loss": loss})
        if not all(map(math.isfinite, losses)):
            rep.problems.append("non-finite training loss")
        elif self.ref is not None and abs(loss - self.ref) > self.rel_tol * abs(self.ref):
            rep.problems.append(f"train_loss {loss!r}, recorded {self.ref!r}")
        return rep


class Score:
    """Timed: calibrate, predict and eval for every model, then report."""

    name = "score"
    unit = "score sequence"

    def __init__(self, seed: int, reference: dict, clock):
        self.clock = clock
        self.seed = seed
        self.cfg = RunConfig.from_dict(config_doc(seed, SETUP_STEPS))
        self.reference = reference

    def setup(self, out: Path) -> tuple[tuple[float, float], dict]:
        timing = _total(_timed(self.clock, s, self.cfg, out) for s in ("gen", "split", "train"))
        labels = json.loads((out / "splits.json").read_text())["labels"]
        t_in, t_out = self.cfg.model.t_in, self.cfg.model.t_out
        self.n_val = len(_window_origins(labels, "val", t_in, t_out))
        self.n_test = len(_window_origins(labels, "test", t_in, t_out))
        return timing, {"train_loss": _tail_mean(_loss_curve(out)[1])}

    def rep(self, out: Path, k: int) -> Rep:
        timings = {"calibrate": _timed(self.clock, "calibrate", self.cfg, out)}
        for model in MODELS:
            timings[f"predict_{model}"] = _timed(self.clock, "predict", self.cfg, out, model=model)
        for model in MODELS:
            timings[f"eval_{model}"] = _timed(self.clock, "eval", self.cfg, out, model=model)
        timings["report"] = _timed(self.clock, "report", self.cfg, out)
        stage_s = {name: wall for name, (wall, _) in timings.items()}
        wall, ref = _total(timings.values())
        outputs = {f"report_{m}.json": (out / f"report_{m}.json").read_bytes() for m in MODELS}
        outputs["comparison.csv"] = (out / "comparison.csv").read_bytes()
        macros = {m: json.loads(outputs[f"report_{m}.json"])["macro"] for m in MODELS}
        rep = Rep(wall, ref, self.n_test * len(MODELS), stage_s, outputs,
                  {"skill_csi": macros["micromodel"]["csi"],
                   "skill_crps": macros["micromodel"]["crps"]})
        rep.problems += check_skill(macros, self.reference.get(str(self.seed)),
                                    self.reference["rel_tol"])
        return rep


class Explain(Score):
    """Set-up as ``score``, with the same config and checkpoint.
    Timed: one ``attribute`` stage call (64-step IG) per repetition."""

    name = "explain"
    unit = "attribute call"

    def rep(self, out: Path, k: int) -> Rep:
        lead, cls = TARGETS[k % len(TARGETS)]
        wall, ref = _timed(self.clock, "attribute", self.cfg, out,
                           lead=lead, class_index=cls, steps=IG_STEPS)
        raw = (out / "attribution.csv").read_bytes()
        gap = float(raw.decode().split()[-1].split(",")[1])
        rep = Rep(wall, ref, IG_STEPS + 2, {"attribute": wall},
                  {f"attribution.csv@{lead},{cls}": raw}, {"attribution_gap": gap})
        if not gap < ATTRIBUTION_GAP_BOUND:
            rep.problems.append(f"attribution gap {gap!r} not under {ATTRIBUTION_GAP_BOUND}")
        return rep


def check_skill(macros: dict, ref: dict | None, rel_tol: dict) -> list:
    """Report macros against the values recorded for this seed, or, for a
    seed with no recorded values, against the ranges every score must lie in."""
    problems = []
    for model, got in macros.items():
        for metric, v in got.items():
            if v is None:
                continue
            if metric in ("csi", "hss", "pooled_csi_p4", "ssim") or metric.startswith("fss_"):
                if not -1.0 <= v <= 1.0:
                    problems.append(f"{model} {metric} = {v!r} out of range")
            elif not (math.isfinite(v) and v >= 0.0):
                problems.append(f"{model} {metric} = {v!r} is not a finite nonnegative number")
        if ref is None:
            continue
        for metric, want in ref[model].items():
            v = got.get(metric)
            if (v is None) != (want is None) or (
                want is not None and abs(v - want) > rel_tol[model] * max(abs(want), 1e-12)
            ):
                problems.append(f"{model} {metric} = {v!r}, recorded {want!r}")
    return problems


def make(name: str, seed: int, reference: dict, clock):
    if name == "train":
        return Train(seed, reference, clock)
    if name == "score":
        return Score(seed, reference, clock)
    if name == "explain":
        return Explain(seed, reference, clock)
    raise ValueError(f"unknown workload {name!r}; choose from train, score, explain")
