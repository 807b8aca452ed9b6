"""Command-line entry point.

Subcommands mirror the pipeline stages::

    raincast gen       --config run.json --out runs/demo
    raincast split     --config run.json --out runs/demo
    raincast train     --config run.json --out runs/demo
    raincast calibrate --config run.json --out runs/demo
    raincast predict   --config run.json --out runs/demo --model micromodel
    raincast eval      --config run.json --out runs/demo --model micromodel
    raincast attribute --config run.json --out runs/demo
    raincast report    --config run.json --out runs/demo

Every stage checks each artifact it reads: that it exists, that its header is
valid JSON and holds the fields the stage reads in a form the stage can
decode (a ``model.json`` config of known keys, a positive ``res_km``,
threshold table edges equal to the configured bins), that the config hash in it
matches the current config (``eval --force`` waives only this check) and, for
``frames``, ``model`` and ``predictions_<model>``, that the ``.f32`` payload
has the length and sha256 its header records.

Exit codes: 0 success, 2 missing or damaged upstream artifact (the message
names the path), 3 configuration/schema violation, including an artifact
written under another config, 4 numerical divergence.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .micromodel import DivergenceError
from .pipeline import (
    MODELS,
    ConfigError,
    MissingArtifactError,
    RunConfig,
    run_stage,
)

EXIT_MISSING = 2
EXIT_SCHEMA = 3
EXIT_DIVERGED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="raincast", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="stage", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", default=None, help="artifact directory (default: config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")

    for name in ("gen", "split", "train", "calibrate"):
        common(sub.add_parser(name))
    p_predict = sub.add_parser("predict")
    common(p_predict)
    p_predict.add_argument("--model", choices=MODELS, default="micromodel")
    p_eval = sub.add_parser("eval")
    common(p_eval)
    p_eval.add_argument("--model", choices=MODELS, default="micromodel")
    p_eval.add_argument("--force", action="store_true",
                        help="accept artifacts produced by a different config")
    p_eval.add_argument("--plot-data", action="store_true",
                        help="also emit per-lead-time series for plotting")
    p_attr = sub.add_parser("attribute")
    common(p_attr)
    p_attr.add_argument("--lead", type=int, default=0)
    p_attr.add_argument("--class-index", type=int, default=0)
    p_attr.add_argument("--steps", type=int, default=64)
    p_report = sub.add_parser("report")
    common(p_report)
    p_report.add_argument("--plot-data", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            scene = dataclasses.replace(cfg.scene, seed=args.seed)
            model = dataclasses.replace(cfg.model, seed=args.seed)
            cfg = dataclasses.replace(cfg, seed=args.seed, scene=scene, model=model)
        out = args.out or cfg.out_dir
        if out is None:
            raise ConfigError("no output directory: pass --out or set out_dir in the config")
        # every option a stage's subparser defines is a keyword of that stage
        kwargs = {k: v for k, v in vars(args).items() if k not in ("stage", "config", "out", "seed")}
        run_stage(args.stage, cfg, Path(out), **kwargs)
    except MissingArtifactError as e:
        print(f"missing or damaged artifact: {e}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    return 0


if __name__ == "__main__":
    sys.exit(main())
