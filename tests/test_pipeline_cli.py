import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import raincast
from raincast.cli import main
from raincast.pipeline import ConfigError, RunConfig, run_stage

import test_acceptance

BASE_CONFIG = {
    "seed": 0,
    "bins": {"edges": [0.5, 2.0], "top_width": 1.5},
    "thresholds": [0.5, 2.0],
    "windows_km": [2.0, 10.0],
    "pools": [4],
    "timeline": {"days": 4.0, "step_min": 60.0},
    "splits": {"cycle_days": [2.0, 1.0, 1.0], "blackout_h": 6.0},
    "scene": {
        "h": 16, "w": 16, "n_cells": 2, "velocity": [1.0, 0.0],
        "amp_range": [1.0, 6.0], "radius_range": [2.0, 4.0], "noise_sigma": 0.05,
    },
    "model": {
        "t_in": 2, "t_out": 3, "k_classes": 2, "channels": 8, "n_blocks": 1,
        "steps": 30, "batch_size": 4, "use_ema": False,
    },
}


def write_config(tmp_path, doc=None, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else BASE_CONFIG))
    return path


def run_all(cfg_path, out):
    for stage in ("gen", "split", "train", "calibrate"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    for model in ("micromodel", "persistence", "advection"):
        assert main(["predict", "--config", str(cfg_path), "--out", str(out), "--model", model]) == 0
        assert main(["eval", "--config", str(cfg_path), "--out", str(out), "--model", model]) == 0
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["surprise"] = 1
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["model"]["hidden_layers"] = 3
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_class_count_must_match_bins(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["model"]["k_classes"] = 5
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("key,values", [
        ("thresholds", [0.5, 0.0]),
        ("thresholds", [-1.0]),
        ("windows_km", [-10.0]),
        ("windows_km", [0.0, 10.0]),
        ("timeline.step_min", 0.0),
        ("timeline.days", -4.0),
        ("splits.cycle_days", [0.0, 0.0, 0.0]),
        ("model.lr", -1.0),
        ("model.lr", 0.0),
        ("model.lr", float("nan")),
        ("model.lr", float("inf")),
        ("model.rate_cap", 0.0),
        ("model.rate_cap", -1.0),
        ("model.rate_cap", float("inf")),
        ("model.alpha", 0.5),
        ("model.alpha", float("nan")),
        ("model.ema_decay", 1.5),
        ("model.ema_decay", 1.0),
        ("model.ema_decay", 0.0),
        ("model.ema_decay", float("nan")),
        ("model.steps", 0),
        ("model.batch_size", 0),
        ("scene.velocity", [float("nan"), 0.0]),
        ("scene.velocity", [1.0, float("inf")]),
        ("scene.velocity", [1.0]),
        ("timeline", []),
        ("bins.edges", [float("nan"), 2.0]),
        ("bins.top_width", float("nan")),
        ("model.t_out", float("nan")),
        ("model.steps", 2.5),
        ("model.use_ema", 1),
        ("scene.n_cells", float("nan")),
        ("scene.radius_range", [float("nan"), 4.0]),
        ("scene.radius_range", [0.0, 4.0]),
        ("scene.res_km", 0.0),
        ("scene.rate_cap", -1.0),
        ("scene.hole_radius", -100.0),
        ("scene.hole_prob", 7.0),
        ("scene.hole_prob", -1.0),
        ("scene.noise_sigma", -0.05),
    ])
    def test_nonpositive_scores_rejected(self, tmp_path, key, values):
        doc = json.loads(json.dumps(BASE_CONFIG))
        parent, _, leaf = key.rpartition(".")
        (doc[parent] if parent else doc)[leaf] = values
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("side,size", [("h", 15), ("w", 9)])
    def test_scene_the_stem_block_does_not_divide_rejected(self, tmp_path, side, size):
        # pools [1] divides any scene, so only the model's stem block (2) can refuse it
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["scene"][side] = size
        doc["pools"] = [1]
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_missing_config_is_exit_two(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    def test_hash_is_stable_and_seed_sensitive(self):
        a = RunConfig.from_dict(BASE_CONFIG)
        b = RunConfig.from_dict(BASE_CONFIG)
        assert a.hash == b.hash
        c = RunConfig.from_dict({**BASE_CONFIG, "seed": 1})
        assert c.hash != a.hash

    def test_preset_bins_by_name(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["bins"] = "europe"
        doc["model"]["k_classes"] = 18
        cfg = RunConfig.from_dict(doc)
        assert cfg.bins.n_classes == 18


class TestStages:
    def test_missing_upstream_artifact(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["split", "--config", str(path), "--out", str(out)]) == 2

    def test_eval_before_predict_is_exit_two(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("gen", "split"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["eval", "--config", str(path), "--out", str(out), "--model", "persistence"]) == 2

    def test_divergence_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["model"]["lr"] = 1e9
        doc["model"]["steps"] = 25
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for stage in ("gen", "split"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["train", "--config", str(path), "--out", str(out)]) == 4

    def test_hash_mismatch_refused_then_forced(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("gen", "split", "train", "calibrate"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["predict", "--config", str(path), "--out", str(out), "--model", "persistence"]) == 0
        drifted = write_config(tmp_path, {**BASE_CONFIG, "seed": 99}, name="drifted.json")
        assert main(["eval", "--config", str(drifted), "--out", str(out), "--model", "persistence"]) == 3
        assert main(["eval", "--config", str(drifted), "--out", str(out), "--model", "persistence",
                     "--force"]) == 0

    def test_advection_without_overlapping_frames_is_quiet(self, tmp_path):
        """Holes wider than the scene leave frame pairs that share no valid
        pixel; their motion is flat, and predict warns about nothing."""
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["scene"].update(hole_prob=0.5, hole_radius=100.0)
        path, out = write_config(tmp_path, doc), tmp_path / "out"
        for stage in ("gen", "split"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(raincast.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "raincast", "predict", "--model", "advection",
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_unknown_stage_rejected(self):
        cfg = RunConfig.from_dict(BASE_CONFIG)
        with pytest.raises(ConfigError):
            run_stage("deploy", cfg, None)

    def test_stale_upstream_input_is_exit_three(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gen", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        other = write_config(tmp_path, {**BASE_CONFIG, "seed": 99}, name="other.json")
        assert main(["split", "--config", str(other), "--out", str(out)]) == 3


@pytest.fixture(scope="module")
def predicted_run(tmp_path_factory):
    """A run directory through ``predict --model micromodel``, copied per test."""
    root = tmp_path_factory.mktemp("predicted")
    path, out = write_config(root), root / "out"
    for stage in ("gen", "split", "train", "calibrate"):
        assert main([stage, "--config", str(path), "--out", str(out)]) == 0
    assert main(["predict", "--config", str(path), "--out", str(out), "--model", "micromodel"]) == 0
    return out


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 3] ^= 0x01
    path.write_bytes(bytes(data))


class TestDamagedArtifacts:
    @pytest.mark.parametrize("name,damage,stage", [
        ("model.f32", _truncate, ["calibrate"]),
        ("frames.f32", _truncate, ["split"]),
        ("predictions_micromodel.f32", _flip_byte, ["eval", "--model", "micromodel"]),
        ("model.json", _truncate, ["attribute"]),
    ])
    def test_next_stage_exits_two(self, tmp_path, capsys, predicted_run, name, damage, stage):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        damage(out / name)
        assert main([*stage, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and "Traceback" not in err

    @pytest.mark.parametrize("name,field,stage", [
        ("splits.json", ["labels"], ["train"]),
        ("thresholds.json", ["table", "thresholds"], ["predict", "--model", "micromodel"]),
        ("predictions_micromodel.json", ["origin_indices"], ["eval", "--model", "micromodel"]),
        ("report_micromodel.json", ["rows", 0, "value"], ["report"]),
        ("model.json", ["has_ema"], ["calibrate"]),
    ])
    def test_header_without_a_field_exits_two(self, tmp_path, capsys, predicted_run, name,
                                              field, stage):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        cfg = str(write_config(tmp_path))
        if name.startswith("report_"):
            assert main(["eval", "--config", cfg, "--out", str(out), "--model", "micromodel"]) == 0
        doc = json.loads((out / name).read_text())
        parent = doc
        for step in field[:-1]:
            parent = parent[step]
        del parent[field[-1]]
        (out / name).write_text(json.dumps(doc))
        assert main([*stage, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and str(field[-1]) in err and "Traceback" not in err

    @pytest.mark.parametrize("name,edit,stage", [
        ("model.json", lambda doc: doc["config"].update(surprise=1), ["calibrate"]),
        ("frames.json", lambda doc: doc.update(res_km=0), ["split"]),
        ("thresholds.json", lambda doc: doc["table"].update(edges=[0.5, 3.0]),
         ["predict", "--model", "micromodel"]),
        ("thresholds.json", lambda doc: doc["table"]["thresholds"][0].__setitem__(0, 7.0),
         ["predict", "--model", "micromodel"]),
        ("frames.json", lambda doc: doc.pop("timesteps_min"), ["split"]),
        ("model.json", lambda doc: doc["config"].update(k_classes=float("nan")), ["calibrate"]),
        ("model.json", lambda doc: doc["config"].pop("n_blocks"), ["predict", "--model", "micromodel"]),
        ("model.json", lambda doc: doc["config"].update(rate_cap="32"), ["attribute"]),
        ("model.json", lambda doc: doc.update(has_ema=1), ["calibrate"]),
        ("model.json", lambda doc: doc["tensors"].pop("head.b"), ["calibrate"]),
        ("splits.json", lambda doc: doc.update(labels=0), ["train"]),
        ("splits.json", lambda doc: doc["labels"].append("test"), ["attribute"]),
        ("predictions_micromodel.json", lambda doc: doc.update(origin_indices=0),
         ["eval", "--model", "micromodel"]),
        ("predictions_micromodel.json", lambda doc: doc["origin_indices"].__setitem__(0, "7"),
         ["eval", "--model", "micromodel"]),
        ("predictions_micromodel.json", lambda doc: doc["origin_indices"].__setitem__(0, 10**6),
         ["eval", "--model", "micromodel"]),
        ("predictions_micromodel.json", lambda doc: doc.update(lead_min=0),
         ["eval", "--model", "micromodel"]),
        ("report_micromodel.json", lambda doc: doc.update(macro=[]), ["report"]),
    ], ids=["unknown-model-key", "zero-res", "other-bin-edges", "threshold-outside-0-1",
            "no-timesteps", "nan-model-field", "dropped-model-field", "model-field-type",
            "has-ema-not-bool", "dropped-tensor", "labels-not-a-list", "label-per-frame",
            "origins-not-a-list", "origin-not-an-int", "origin-past-the-frames",
            "lead-min-not-a-list", "macro-not-an-object"])
    def test_header_a_loader_cannot_decode_exits_two(self, tmp_path, capsys, predicted_run,
                                                      name, edit, stage):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        if name.startswith("report_"):
            assert main(["eval", "--config", str(write_config(tmp_path)), "--out", str(out),
                         "--model", "micromodel"]) == 0
        doc = json.loads((out / name).read_text())
        edit(doc)
        (out / name).write_text(json.dumps(doc))
        assert main([*stage, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and "Traceback" not in err

    def test_force_does_not_waive_integrity(self, tmp_path, predicted_run):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        drifted = write_config(tmp_path, {**BASE_CONFIG, "seed": 99}, name="drifted.json")
        args = ["eval", "--config", str(drifted), "--out", str(out), "--model", "micromodel", "--force"]
        assert main(args) == 0
        _flip_byte(out / "predictions_micromodel.f32")
        assert main(args) == 2


class TestFullPipeline:
    def test_end_to_end_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        run_all(path, out)
        for name in ("frames.json", "frames.f32", "splits.json", "model.json",
                     "thresholds.json", "predictions_micromodel.json",
                     "report_micromodel.csv", "report_persistence.csv",
                     "report_advection.csv", "comparison.csv", "loss_curve.csv"):
            assert (out / name).exists(), name
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header == "model,metric,threshold,lead_min,value"

    def test_attribution_stage(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("gen", "split", "train"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["attribute", "--config", str(path), "--out", str(out), "--steps", "16"]) == 0
        lines = (out / "attribution.csv").read_text().splitlines()
        assert lines[0] == "feature,importance"
        assert any(l.startswith("rate_") for l in lines)
        assert lines[-1].startswith("completeness_gap,")
        for line in lines[1:]:
            float(line.split(",")[1])

    @pytest.mark.parametrize("args", [
        ["--lead", "3"], ["--lead", "-1"], ["--class-index", "2"], ["--class-index", "-1"],
        ["--steps", "0"],
    ], ids=["lead-t_out", "lead-negative", "class-k", "class-negative", "zero-steps"])
    def test_attribute_target_out_of_range_exits_three(self, tmp_path, capsys, predicted_run,
                                                       args):
        # the base config has t_out 3 and 2 ordinal classes; nothing is read or written
        path = write_config(tmp_path)
        assert main(["attribute", "--config", str(path), "--out", str(predicted_run), *args]) == 3
        err = capsys.readouterr().err
        assert args[0] in err and "Traceback" not in err
        assert not (predicted_run / "attribution.csv").exists()

    def test_plot_data_flag(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("gen", "split", "train", "calibrate"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["predict", "--config", str(path), "--out", str(out), "--model", "persistence"]) == 0
        assert main(["eval", "--config", str(path), "--out", str(out), "--model", "persistence",
                     "--plot-data"]) == 0
        assert (out / "plot_persistence.csv").exists()

    def test_plot_rows_are_the_report_rows(self, tmp_path):
        # a 50 mm/h threshold is never reached, so its categorical cells are undefined
        path = write_config(tmp_path, {**BASE_CONFIG, "thresholds": [0.5, 2.0, 50.0]})
        out = tmp_path / "out"
        for stage in ("gen", "split"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["predict", "--config", str(path), "--out", str(out), "--model", "persistence"]) == 0
        assert main(["eval", "--config", str(path), "--out", str(out), "--model", "persistence",
                     "--plot-data"]) == 0
        assert main(["report", "--config", str(path), "--out", str(out), "--plot-data"]) == 0

        def lines(name):
            return (out / name).read_text().splitlines()

        report = lines("report_persistence.csv")
        assert any(line.endswith(",nan") for line in report)
        assert lines("plot_persistence.csv") == [l for l in report if ",all,all," not in l]
        comparison = lines("comparison.csv")
        assert lines("plot_data.csv") == [l for l in comparison if ",all,all," not in l]
        assert comparison[1:] == [f"persistence,{l}" for l in report[1:]]

    def test_stage_rerun_is_idempotent(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("gen", "split", "train"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        first = (out / "model.f32").read_bytes()
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "model.f32").read_bytes() == first

    def test_same_seed_reproduces_reports_byte_identically(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_all(path, out_a)
        run_all(path, out_b)
        for name in ("report_micromodel.csv", "report_persistence.csv",
                     "report_advection.csv", "comparison.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path, monkeypatch):
        """Criterion 11's pipeline, run once on one BLAS thread and once on two."""
        criterion = test_acceptance.TestCriterion11()
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(criterion.CONFIG))
        outs = [tmp_path / "threads1", tmp_path / "threads2"]
        for threads, out in zip(("1", "2"), outs):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)  # read by each stage subprocess
            criterion.run_pipeline(cfg_path, out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
