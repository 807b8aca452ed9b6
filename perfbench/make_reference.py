"""Record the reference values that the ``train`` and ``score`` workloads
check.

    python3 perfbench/make_reference.py SEED [SEED ...]

For each seed it runs one ``train`` unit and one ``score`` sequence, each
after one set-up, and stores the train loss and every model's macro scores
in ``perfbench/reference.json``, keeping the seeds already there.  Run it on
the commit whose outputs are taken as correct; seeds with no entry get the
range checks only.
"""

import json
import os
import shutil
import sys

from run import BENCH_DIR, OUT_DIR, import_program  # pins the BLAS threads first


def main(seeds) -> int:
    import_program()
    import workloads

    path = BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    unchecked = {"rel_tol": reference["rel_tol"]}
    for seed in seeds:
        entry = {}
        for wl in (workloads.Train(seed, unchecked), workloads.Score(seed, unchecked)):
            work = OUT_DIR / f"reference-{wl.name}-{seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                wl.setup(work)
                rep = wl.rep(work, 0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if wl.name == "train":
                entry["train_loss"] = rep.values["train_loss"]
            else:
                entry.update({name[len("report_"):-len(".json")]: json.loads(blob)["macro"]
                              for name, blob in rep.outputs.items() if name.startswith("report_")})
        reference[str(seed)] = entry
        print(f"seed {seed}: train_loss {entry['train_loss']!r}, micromodel csi {entry['micromodel']['csi']!r}")
    keys = sorted((k for k in reference if k != "rel_tol"), key=int)
    ordered = {"rel_tol": reference["rel_tol"], **{k: reference[k] for k in keys}}
    path.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
