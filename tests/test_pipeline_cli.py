import json
import shutil

import pytest

from raincast.cli import main
from raincast.pipeline import ConfigError, RunConfig, run_stage

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
    ])
    def test_nonpositive_scores_rejected(self, tmp_path, key, values):
        doc = json.loads(json.dumps(BASE_CONFIG))
        parent, _, leaf = key.rpartition(".")
        (doc[parent] if parent else doc)[leaf] = values
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

    def test_plot_data_flag(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("gen", "split", "train", "calibrate"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        assert main(["predict", "--config", str(path), "--out", str(out), "--model", "persistence"]) == 0
        assert main(["eval", "--config", str(path), "--out", str(out), "--model", "persistence",
                     "--plot-data"]) == 0
        assert (out / "plot_persistence.csv").exists()

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
