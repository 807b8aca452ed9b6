"""raincast benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {train,score,explain} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports raincast from ``src/``
there and drives ``raincast.pipeline.run_stage`` on a generated config.  It
sets the workload up, then repeats the workload's timed unit until the
repetitions have taken ``--seconds``, setting up again between them, and
checks every output.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics, with the tracing overhead
measured as the gap between the two.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Spans and the full
result go to ``perfbench/out/``.
"""

import os

# BLAS and OpenMP read these once, when numpy loads: pin before any import of it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_SETUPS = 3
SETUP_SHARE = 0.15  # set-ups repeat, between repetitions, until they take this share
MIN_REPS = 2  # byte-identical outputs need two; the trace needs one of each kind
PERCENTILES = (75, 90, 95, 99)  # reported beside the median when 10 samples lie beyond


def import_program():
    """Import raincast from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import raincast
    except ImportError as e:
        sys.exit(f"cannot import raincast from {ROOT / 'src'}: {e}")
    if not Path(raincast.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"raincast was imported from {raincast.__file__}, not from {ROOT / 'src'}")


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def percentile_report(samples: list) -> dict:
    """Median, plus the highest listed percentile with >= 10 samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    for p in PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "score", "explain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import workloads
    from spans import Tracer
    from speed import SpeedClock

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    clock = SpeedClock()
    wl = workloads.make(args.workload, args.seed, reference, clock)
    tracer = Tracer() if args.trace else None
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spare = work.with_name(work.name + "-setup")
    attempted = failed = 0
    problems = []
    setup_s, setup_wall_s, first_digest = [], [], None  # reference and wall seconds
    reps = {False: [], True: []}  # traced? -> [Rep]
    first_outputs = {}

    def traced_run(phase):
        if not tracer:
            return contextlib.nullcontext()
        return tracer.run(len(setup_s) + len(reps[False]) + len(reps[True]), phase)

    def set_up(where: Path) -> dict:
        nonlocal attempted, failed, first_digest
        shutil.rmtree(where, ignore_errors=True)
        where.mkdir(parents=True)
        with traced_run("setup"):
            (wall, ref), vals = wl.setup(where)
        setup_s.append(ref)
        setup_wall_s.append(wall)
        digest = workloads.artifact_digest(where)
        first_digest = first_digest or digest
        attempted += 1
        if digest != first_digest:
            failed += 1
            problems.append(f"set-up {len(setup_s) - 1} wrote artifacts that differ from set-up 0")
        return vals

    try:
        setup_vals = set_up(work)
        rep_s = 0.0
        while True:
            done = rep_s >= args.seconds and len(reps[False]) + len(reps[True]) >= MIN_REPS
            if done and len(setup_s) >= MIN_SETUPS:
                break
            # further set-ups, in a spare directory, are spread over the run so
            # that their median does not hang on one moment's machine speed
            if done or sum(setup_wall_s) < SETUP_SHARE * (sum(setup_wall_s) + rep_s):
                set_up(spare)
            if done:
                continue
            k = len(reps[False]) + len(reps[True])
            traced = bool(tracer) and k % 2 == 1
            with traced_run("timed") if traced else contextlib.nullcontext():
                rep = wl.rep(work, k)
            for name, blob in rep.outputs.items():
                if first_outputs.setdefault(name, blob) != blob:
                    rep.problems.append(f"{name} differs from its first repetition")
            attempted += 1
            if rep.problems:
                failed += 1
                problems += [f"rep {k}: {p}" for p in rep.problems]
            reps[traced].append(rep)
            rep_s += rep.wall_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = reps[False]
    walls = [r.wall_s for r in plain]
    refs = [r.ref_s for r in plain]
    vals = {**setup_vals, **plain[0].values}
    if "attribution_gap" in vals:  # the targets differ, so report the worst
        vals["attribution_gap"] = max(r.values["attribution_gap"] for r in plain)
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_ref_s": (sum(r.items for r in plain) / sum(refs), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "train_loss": (vals["train_loss"], "loss"),
    }
    named = named_metrics(args.workload, wl, plain, end_to_end, vals, failed / attempted)
    named["items_per_s"] = (sum(r.items for r in plain) / sum(walls), "1/s")
    named["setup_wall_s"] = (statistics.median(setup_wall_s), "s")
    named["speed.reference_s_p50"] = (statistics.median(clock.samples), "s")
    named["speed.reference_s_min"] = (min(clock.samples), "s")

    env = environment()
    print(f"# raincast benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# set-ups: {len(setup_s)}; timed units ({wl.unit}): {len(plain)} untraced"
          + (f", {len(reps[True])} traced" if tracer else ""))
    print(f"# untraced {wl.unit} seconds: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# untraced {wl.unit} reference seconds: {' '.join(f'{r:.4f}' for r in refs)}")
    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    for p in problems:
        print(f"# check failed: {p}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
              "problems": problems}
    if tracer:
        layers = tracer.layer_metrics()
        traced_p50 = statistics.median(r.ref_s for r in reps[True])
        layers["trace.overhead_pct"] = (100.0 * (traced_p50 / statistics.median(refs) - 1.0), "%", "lower")
        for name, (value, unit, _) in layers.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
        result["per_layer"] = metrics
        (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(tracer.dump()))
    else:
        metrics = result["end_to_end"]
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def named_metrics(workload, wl, plain, end_to_end, vals, error_rate) -> dict:
    """The metrics under the names the workload descriptions use."""
    med = statistics.median
    out = {"setup_s": end_to_end["setup_s"], "peak_rss_mb": end_to_end["peak_rss_mb"],
           "error_rate": (error_rate, "ratio")}
    if workload == "train":
        out["train_samples_per_s"] = (med(r.items / r.wall_s for r in plain), "1/s")
        out["train_loss"] = end_to_end["train_loss"]
    elif workload == "score":
        stage = lambda name: med(r.stage_s[name] for r in plain)
        out["calibrate_windows_per_s"] = (wl.n_val / stage("calibrate"), "1/s")
        out["forecast_windows_per_s"] = (wl.n_test / stage("predict_micromodel"), "1/s")
        out["advection_windows_per_s"] = (wl.n_test / stage("predict_advection"), "1/s")
        eval_s = med(sum(v for s, v in r.stage_s.items() if s.startswith("eval_")) for r in plain)
        out["eval_windows_per_s"] = (3 * wl.n_test / eval_s, "1/s")
        out["score_s"] = (med(r.wall_s for r in plain), "s")
        out["skill_csi"] = (vals["skill_csi"], "score")
        out["skill_crps"] = (vals["skill_crps"], "mm/h")
    else:
        pct = percentile_report([r.wall_s for r in plain])
        out["attribute_s_p50"] = (pct["p50"], "s")
        out["attribute_s.samples"] = (pct["n"], "count")
        for key in pct:
            if key not in ("n", "p50"):
                out[f"attribute_s_{key}"] = (pct[key], "s")
        out["attribution_gap"] = (vals["attribution_gap"], "logit")
    return out


if __name__ == "__main__":
    sys.exit(main())
