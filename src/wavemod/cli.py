"""Command-line entry point.

    wavemod <experiment> [--config path] [--seed S] [--trials N] [--out path.csv]

Experiments: papr-ccdf, evm-sweep, ber-fading, se-table, modgauss-report.
Exit codes: 0 success, 2 configuration error, 3 numerical failure or any
other error (one line on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .configio import ExperimentConfig, load_config
from .errors import ConfigError, WavemodError
from .experiments import RUNNERS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavemod",
        description="Wavelet single-carrier / multicarrier simulation studies",
    )
    parser.add_argument(
        "experiment", choices=sorted(RUNNERS), help="which study to run"
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trial override")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig()
        if args.config:
            cfg = load_config(args.config, cfg)
        overrides = {"experiment": args.experiment}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["n_trials"] = args.trials
        if args.out is not None:
            overrides["output_path"] = args.out
        cfg = replace(cfg, **overrides)
        table = run_experiment(cfg)
        if cfg.output_path:
            table.write(cfg.output_path)
        else:
            sys.stdout.write(table.to_csv())
    except ConfigError as exc:
        print(f"wavemod: config error: {exc}", file=sys.stderr)
        return 2
    except WavemodError as exc:
        print(f"wavemod: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"wavemod: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI reports, it never prints a traceback
        print(f"wavemod: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
