"""End-to-end orchestration: dataset generation, splits, training,
calibration, prediction, evaluation, attribution, and report merging.

Every stage reads and writes only declared paths under one output directory.
Every artifact embeds the hash of the run configuration that produced it, and
every stage input is read through :func:`_read`, which checks that hash and,
where the artifact has a payload, its length and digest.  All randomness flows
from the single configured seed.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_args

import numpy as np

from . import artifact
from . import baseline as bl
from .artifact import DamagedArtifactError, MissingArtifactError
from .attribution import integrated_gradients
from .intensity import BinSet, exceedance_masks
from .micromodel import (
    ModelConfig,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .probcast import ThresholdTable, calibrate_thresholds, extract_intensity
from .raster import SENTINEL, SourceStack, load_raster, save_raster
from .synthdata import SceneConfig, gen_sequence, make_splits
from .verify import EvalSample, ReportConfig, build_report, csv_row

MODELS = ("micromodel", "persistence", "advection")

STAGES = ("gen", "split", "train", "calibrate", "predict", "eval", "attribute", "report")


class ConfigError(ValueError):
    """The run configuration violates the schema."""


def _take(doc: dict, allowed: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _typed(value, kind) -> bool:
    """Whether a config field holds a value of its declared type: an int or a
    bool exactly, a float as a finite int or float, a tuple item by item."""
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    if kind in (int, bool, str):
        return type(value) is kind
    items = get_args(kind)  # tuple[float, ...] fields of a fixed length
    return (isinstance(value, tuple) and len(value) == len(items)
            and all(map(_typed, value, items)))


@dataclass(frozen=True)
class RunConfig:
    seed: int
    bins: BinSet
    bins_name: str | None
    thresholds: tuple[float, ...]
    windows_km: tuple[float, ...]
    pools: tuple[int, ...]
    timeline_days: float
    step_min: float
    cycle_days: tuple[float, float, float]
    blackout_h: float
    scene: SceneConfig
    model: ModelConfig
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _take(doc, {"seed", "bins", "thresholds", "windows_km", "pools", "timeline",
                    "splits", "scene", "model", "out_dir"}, "run config")
        try:
            seed = int(doc.get("seed", 0))
            bins_spec = doc.get("bins", "europe")
            if isinstance(bins_spec, str):
                bins = BinSet.preset(bins_spec)
                bins_name = bins_spec
            else:
                _take(bins_spec, {"edges", "top_width"}, "bins")
                bins = BinSet(tuple(bins_spec["edges"]), bins_spec.get("top_width", 5.0))
                bins_name = None
            timeline = doc.get("timeline", {})
            _take(timeline, {"days", "step_min"}, "timeline")
            splits = doc.get("splits", {})
            _take(splits, {"cycle_days", "blackout_h"}, "splits")
            cycle = tuple(splits.get("cycle_days", (12.0, 2.0, 2.0)))
            if len(cycle) != 3:
                raise ConfigError("cycle_days must hold train, val and test day counts")
            scene_doc = dict(doc.get("scene", {}))
            _take(scene_doc, set(SceneConfig.__dataclass_fields__), "scene")
            scene_doc.setdefault("seed", seed)
            for key in ("amp_range", "radius_range", "velocity"):
                if key in scene_doc:
                    scene_doc[key] = tuple(scene_doc[key])
            model_doc = dict(doc.get("model", {}))
            _take(model_doc, set(ModelConfig.__dataclass_fields__), "model")
            model_doc.setdefault("seed", seed)
            cfg = cls(
                seed=seed,
                bins=bins,
                bins_name=bins_name,
                thresholds=tuple(doc.get("thresholds", (0.5, 1.0, 2.0, 5.0, 10.0))),
                windows_km=tuple(doc.get("windows_km", (2.0, 10.0, 20.0))),
                pools=tuple(int(p) for p in doc.get("pools", (4,))),
                timeline_days=float(timeline.get("days", 20.0)),
                step_min=float(timeline.get("step_min", 60.0)),
                cycle_days=cycle,
                blackout_h=float(splits.get("blackout_h", 12.0)),
                scene=SceneConfig(**scene_doc),
                model=ModelConfig(**model_doc),
                out_dir=doc.get("out_dir"),
            )
            for where, section in (("scene", cfg.scene), ("model", cfg.model)):
                for f in section.__dataclass_fields__.values():
                    if not _typed(getattr(section, f.name), f.type):
                        raise ConfigError(f"{where}.{f.name} has the wrong type or is not finite")
            scene, model = cfg.scene, cfg.model
            positive = {"thresholds": cfg.thresholds, "windows_km": cfg.windows_km,
                        "timeline.days": (cfg.timeline_days,),
                        "timeline.step_min": (cfg.step_min,), "model.lr": (model.lr,),
                        "model.rate_cap": (model.rate_cap,), "scene.res_km": (scene.res_km,),
                        "scene.rate_cap": (scene.rate_cap,),
                        "scene.radius_range": scene.radius_range}
            for key, values in positive.items():
                if not all(math.isfinite(v) and v > 0 for v in values):
                    raise ConfigError(f"{key} must all be finite and positive")
            if model.alpha < 1:
                raise ConfigError("model.alpha must be at least 1")
            if not 0 <= scene.hole_prob <= 1:
                raise ConfigError("scene.hole_prob must lie in [0, 1]")
            if min(scene.hole_radius, scene.noise_sigma) < 0:
                raise ConfigError("scene.hole_radius and scene.noise_sigma must be nonnegative")
            if not 0 < model.ema_decay < 1:
                raise ConfigError("model.ema_decay must lie strictly between 0 and 1")
            if min(model.steps, model.batch_size) < 1:
                raise ConfigError("model.steps and model.batch_size must be at least 1")
            if not (all(math.isfinite(v) and v >= 0 for v in (*cycle, cfg.blackout_h))
                    and sum(cycle) > 0):
                raise ConfigError("splits.cycle_days and blackout_h must be finite and "
                                  "nonnegative, and cycle_days must sum above zero")
        except (TypeError, ValueError, KeyError) as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError(str(e)) from e
        if cfg.model.k_classes != cfg.bins.n_classes:
            raise ConfigError(
                f"model.k_classes = {cfg.model.k_classes} does not match "
                f"{cfg.bins.n_classes} bin edges"
            )
        for pool in cfg.pools:
            if pool < 1 or cfg.scene.h % pool or cfg.scene.w % pool:
                raise ConfigError(f"pool {pool} does not divide the {cfg.scene.h}x{cfg.scene.w} scene")
        block = cfg.model.stem_block
        if cfg.scene.h % block or cfg.scene.w % block:
            raise ConfigError(f"model.stem_block {block} does not divide the "
                              f"{cfg.scene.h}x{cfg.scene.w} scene")
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise MissingArtifactError(str(path))
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(doc)

    def canonical(self) -> dict:
        return {
            "seed": self.seed,
            "bins": {"edges": list(self.bins.edges), "top_width": self.bins.top_width},
            "thresholds": list(self.thresholds),
            "windows_km": list(self.windows_km),
            "pools": list(self.pools),
            "timeline": {"days": self.timeline_days, "step_min": self.step_min},
            "splits": {"cycle_days": list(self.cycle_days), "blackout_h": self.blackout_h},
            "scene": asdict(self.scene),
            "model": asdict(self.model),
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# stage inputs


def _has(node, path: list, kind: type = object) -> bool:
    """Whether ``node`` holds a ``kind`` at ``path``; a ``*`` step requires the
    rest of the path in every item of a list."""
    if not path:
        return isinstance(node, kind)
    head, *rest = path
    if head == "*":
        return isinstance(node, list) and all(_has(item, rest, kind) for item in node)
    return isinstance(node, dict) and head in node and _has(node[head], rest, kind)


def _read(cfg: RunConfig, base: Path, load=None, force: bool = False, keys=None):
    """Every stage input comes through here: check that the artifact at
    ``base`` was written under ``cfg`` and that its header holds every dotted
    field in ``keys`` the stage reads, with the type ``keys`` maps it to, then
    return ``load(base)``, or the header itself for an artifact without a
    payload.

    ``force`` waives the config check only; a loader always checks the payload.
    A missing field, a header field a loader lacks, or one it cannot decode is
    damage (exit 2).
    """
    header = artifact.read_header(base)
    path = base.with_suffix(".json")
    if header.get("config_hash") != cfg.hash and not force:
        raise ConfigError(
            f"{path} was produced by config {header.get('config_hash')}, "
            f"current is {cfg.hash}; rerun the stage that writes it"
        )
    missing = [key for key, kind in (keys or {}).items() if not _has(header, key.split("."), kind)]
    if missing:
        raise DamagedArtifactError(f"{path}: header lacks {', '.join(missing)}")
    try:
        return header if load is None else load(base)
    except KeyError as e:
        raise DamagedArtifactError(f"{path}: header lacks {e.args[0]}") from None
    except (TypeError, ValueError) as e:
        raise DamagedArtifactError(f"{path}: {e}") from None


def _split_windows(cfg: RunConfig, out: Path, split: str):
    """The frame stack and the origins of the windows inside one split."""
    stack = _read(cfg, out / "frames", load_raster)
    labels = _read(cfg, out / "splits", keys={"labels": list})["labels"]
    if len(labels) != len(stack.data):
        raise DamagedArtifactError(f"{out / 'splits.json'}: {len(labels)} labels "
                                   f"for {len(stack.data)} frames")
    origins = _window_origins(labels, split, cfg.model.t_in, cfg.model.t_out)
    if not origins:
        raise ConfigError(f"no {split} windows fit inside the {split} split")
    return stack, origins


def _read_model(cfg: RunConfig, out: Path):
    """The checkpoint, which must hold the run's own model config and the
    tensor shapes that config gives."""
    shapes = {k: v.shape for k, v in init_params(cfg.model).tensors.items()}

    def load(base):
        params = load_checkpoint(base)
        if params.config != cfg.model or {k: v.shape for k, v in params.tensors.items()} != shapes:
            raise ValueError("its model config or tensor shapes are not the run's")
        return params

    return _read(cfg, out / "model", load)


def _window_origins(labels, split: str, t_in: int, t_out: int):
    """Frame indices whose full input+target window carries one split label."""
    n = len(labels)
    out = []
    for i in range(t_in - 1, n - t_out):
        window = labels[i - t_in + 1 : i + t_out + 1]
        if all(l == split for l in window):
            out.append(i)
    return out


def _samples(frames: np.ndarray, origins, t_in: int, t_out: int):
    return [
        (frames[i - t_in + 1 : i + 1], frames[i + 1 : i + 1 + t_out])
        for i in origins
    ]


# ---------------------------------------------------------------------------
# stages


def stage_gen(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    timestamps = np.arange(0.0, cfg.timeline_days * 1440.0, cfg.step_min)
    frames = gen_sequence(cfg.scene, len(timestamps))
    stack = SourceStack(
        frames[:, None], cfg.scene.res_km, (0.0, 0.0), tuple(timestamps.tolist()), "rate"
    )
    save_raster(out / "frames", stack, extra={"config_hash": cfg.hash})


def stage_split(cfg: RunConfig, out: Path) -> None:
    stack = _read(cfg, out / "frames", load_raster)
    assignment = make_splits(stack.timesteps_min, cfg.cycle_days, cfg.blackout_h)
    artifact.write(out / "splits", {
        "config_hash": cfg.hash,
        "timestamps_min": list(assignment.timestamps_min),
        "labels": list(assignment.labels),
    })


def stage_train(cfg: RunConfig, out: Path) -> None:
    stack, origins = _split_windows(cfg, out, "train")
    dataset = _samples(stack.data[:, 0], origins, cfg.model.t_in, cfg.model.t_out)
    params, curve = train(dataset, cfg.model, cfg.bins)
    save_checkpoint(out / "model", params, extra={"config_hash": cfg.hash})
    lines = ["step,loss"] + [f"{i},{v!r}" for i, v in enumerate(curve)]
    (out / "loss_curve.csv").write_text("\n".join(lines) + "\n")


def _lead_minutes(cfg: RunConfig) -> tuple[float, ...]:
    return tuple(cfg.step_min * (k + 1) for k in range(cfg.model.t_out))


def stage_calibrate(cfg: RunConfig, out: Path) -> None:
    stack, origins = _split_windows(cfg, out, "val")
    params = _read_model(cfg, out)
    cubes, masks = [], []
    for inp, tgt in _samples(stack.data[:, 0], origins, cfg.model.t_in, cfg.model.t_out):
        cubes.append(predict(params, inp))
        masks.append(exceedance_masks(tgt, cfg.bins))
    table = calibrate_thresholds(cubes, masks, bins=cfg.bins, lead_min=_lead_minutes(cfg))
    artifact.write(out / "thresholds", {"config_hash": cfg.hash, "table": json.loads(table.to_json())})


def stage_predict(cfg: RunConfig, out: Path, model: str) -> None:
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from {MODELS}")
    stack, origins = _split_windows(cfg, out, "test")
    frames = stack.data[:, 0]
    t_in, t_out = cfg.model.t_in, cfg.model.t_out
    rates_all, probs_all = [], []
    if model == "micromodel":
        params = _read_model(cfg, out)
        table = _read(cfg, out / "thresholds", lambda base: ThresholdTable.from_json(
            json.dumps(artifact.read_header(base)["table"]), cfg.bins.edges),
            keys={"table.thresholds": object, "table.edges": object})
    elif model == "advection":
        # overlapping windows share frame pairs: match each pair once
        motions = bl.estimate_motions(frames, origins, t_in)
    for j, (inp, _tgt) in enumerate(_samples(frames, origins, t_in, t_out)):
        if model == "micromodel":
            cube = predict(params, inp)
            rates = extract_intensity(cube, table, cfg.bins)
            probs_all.append(cube)
        elif model == "persistence":
            rates = bl.persistence(inp[-1], t_out)
        else:
            rates = bl.advect(inp[-1], motions[j], t_out)
        # pixels the baseline cannot see (advected in from outside) forecast no rain
        rates = np.where(rates == SENTINEL, 0.0, rates)
        rates_all.append(rates)

    arrays = [np.stack(rates_all)] + ([np.stack(probs_all)] if probs_all else [])
    artifact.write(out / f"predictions_{model}", {
        "config_hash": cfg.hash,
        "model": model,
        "origin_indices": list(origins),
        "origins_min": [stack.timesteps_min[i] for i in origins],
        "lead_min": list(_lead_minutes(cfg)),
        "shape": list(arrays[0].shape),
        "has_prob": bool(probs_all),
        "k_classes": cfg.bins.n_classes if probs_all else 0,
    }, arrays)


def stage_eval(cfg: RunConfig, out: Path, model: str, force: bool = False,
               plot_data: bool = False) -> None:
    frames = _read(cfg, out / "frames", load_raster, force).data[:, 0]
    t_out = cfg.model.t_out

    def load(base):
        doc, arrays = artifact.read(base)
        origins = doc["origin_indices"]
        if len(origins) != len(arrays[0]) or not all(
                type(i) is int and 0 <= i < len(frames) - t_out for i in origins):
            raise ValueError("origin_indices do not index the frames")
        if not all(_typed(v, float) for v in doc["lead_min"]):
            raise ValueError("lead_min holds a value that is not a finite number")
        return doc, arrays

    doc, (rates, *probs) = _read(cfg, out / f"predictions_{model}", load, force,
                                 keys={"origin_indices": list, "lead_min": list})
    samples = []
    for j, i in enumerate(doc["origin_indices"]):
        obs = frames[i + 1 : i + 1 + t_out]
        samples.append(EvalSample(rates[j], obs, probs[0][j] if probs else None))
    rc = ReportConfig(
        thresholds=cfg.thresholds,
        windows_km=cfg.windows_km,
        pools=cfg.pools,
        res_km=cfg.scene.res_km,
        bins=cfg.bins,
        lead_min=tuple(doc["lead_min"]),
    )
    report = build_report(samples, rc)
    (out / f"report_{model}.csv").write_text(report.to_csv())
    rep_doc = json.loads(report.to_json())
    rep_doc["config_hash"] = cfg.hash
    rep_doc["model"] = model
    artifact.write(out / f"report_{model}", rep_doc)
    if plot_data:
        lines = ["metric,threshold,lead_min,value"] + [csv_row(*row) for row in report.rows]
        (out / f"plot_{model}.csv").write_text("\n".join(lines) + "\n")


def stage_attribute(cfg: RunConfig, out: Path, lead: int = 0, class_index: int = 0,
                    steps: int = 64) -> None:
    if not 0 <= lead < cfg.model.t_out:
        raise ConfigError(f"--lead {lead} is outside [0, {cfg.model.t_out})")
    if not 0 <= class_index < cfg.model.classes_per_lead:
        raise ConfigError(f"--class-index {class_index} is outside [0, {cfg.model.classes_per_lead})")
    if steps < 1:
        raise ConfigError(f"--steps {steps} must be at least 1")
    stack, origins = _split_windows(cfg, out, "test")
    params = _read_model(cfg, out)
    inp = stack.data[origins[0] - cfg.model.t_in + 1 : origins[0] + 1, 0]
    result = integrated_gradients(params, inp, (lead, class_index, None), steps=steps)
    names = _plane_names(cfg)
    lines = ["feature,importance"]
    lines += [csv_row(name, float(v)) for name, v in zip(names, result["per_channel"])]
    lines.append(csv_row("completeness_gap", result["completeness_gap"]))
    (out / "attribution.csv").write_text("\n".join(lines) + "\n")


def _plane_names(cfg: RunConfig):
    t_in = cfg.model.t_in
    offsets = [int(-(t_in - 1 - j) * cfg.step_min) for j in range(t_in)]
    names = [f"rate_{o}min" for o in offsets] + [f"valid_{o}min" for o in offsets]
    if cfg.model.mode == "lead-conditioned":
        names += [f"lead_{k}" for k in range(cfg.model.t_out)]
    return names


def stage_report(cfg: RunConfig, out: Path, plot_data: bool = False) -> None:
    reports = sorted(out.glob("report_*.json"))
    if not reports:
        raise MissingArtifactError(str(out / "report_<model>.json"))
    fields = ("metric", "threshold", "lead_min", "value")
    lines = ["model," + ",".join(fields)]
    plot_lines = list(lines)
    for path in reports:
        doc = _read(cfg, path.with_suffix(""), keys={
            "model": str, "macro": dict, **{f"rows.*.{k}": object for k in fields}})
        model = doc["model"]
        rows = [csv_row(model, *(row[k] for k in fields)) for row in doc["rows"]]
        lines += rows + [csv_row(model, m, "all", "all", v) for m, v in sorted(doc["macro"].items())]
        plot_lines += rows
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
    if plot_data:
        (out / "plot_data.csv").write_text("\n".join(plot_lines) + "\n")


def run_stage(stage: str, cfg: RunConfig, out: Path, **kwargs) -> None:
    """Run ``stage_<stage>`` with ``kwargs``.  The stage is looked up in this
    module when called, so a stage patched onto the module is the one that runs."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    globals()[f"stage_{stage}"](cfg, out, **kwargs)
