"""The benchmark's tracer (perfbench/spans.py) patches raincast names where
their callers look them up.  These tests fail when a refactor moves or renames
such a name, or binds a stage so that a patch no longer takes effect."""

import importlib.util
from pathlib import Path

from raincast import pipeline
from raincast.cli import main

from test_pipeline_cli import BASE_CONFIG, write_config

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists():
    for owner, attr, name, _ in load_spans().PATCHES:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} (span {name}) is gone"


def test_run_stage_calls_the_patched_stage(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "stage_split", lambda cfg, out, **kw: calls.append((cfg, out, kw)))
    cfg = pipeline.RunConfig.from_dict(BASE_CONFIG)
    pipeline.run_stage("split", cfg, Path("unused"), marker=1)
    assert calls == [(cfg, Path("unused"), {"marker": 1})]


def test_traced_stages_reach_their_artifact_codecs(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    path, out = write_config(tmp_path), tmp_path / "out"
    with tracer.run(0, "setup"):
        for stage in ("gen", "split"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"pipeline.gen", "pipeline.split", "synthdata.gen_sequence", "synthdata.make_splits",
            "raster.save_raster", "raster.load_raster"} <= names
