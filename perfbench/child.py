"""Run one wavemod study repeatedly in a fresh interpreter and report each run.

    PYTHONPATH=src python3 perfbench/child.py <study> --trials N --seeds S1,S2,.. \
        --runs R --seconds T --out result.csv --report report.jsonl [--trace]

Set-up imports the CLI and builds the config as ``wavemod <study> --trials N``
does.  Then the study runs up to R times, cycling through the seeds, until T
seconds have passed (at least once when R > 0); each run writes the CSV, as
``--out`` does, and is timed with the CSV write.  ``--runs 0`` measures set-up
alone.

The report is JSON lines, flushed as they are written so a crash keeps the
runs before it: a header (the clock at the end of set-up -- ``perf_counter``
is system-wide on Linux, so the parent can subtract its own start time --, the
package location and the environment), one line per study run (seed, wall and
CPU time, chain-frames, CSV sha256) and a footer (peak RSS and, with
``--trace``, every span).  A study that raises propagates the exception, so
the interpreter exits nonzero.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace

# Set-up: the whole package, as the CLI loads it.  wavemod comes first so
# that its import times include the numpy and scipy modules it pulls in.
import wavemod.cli
from wavemod.configio import ExperimentConfig, parse_float_list
from wavemod.experiments import SYSTEM_ORDER, run_experiment

import numpy
import scipy


def chain_frames(cfg: ExperimentConfig) -> int:
    """Frames through one system, with everything the study does downstream."""
    if cfg.experiment == "papr-ccdf":
        return cfg.n_trials * len(SYSTEM_ORDER)
    if cfg.experiment == "ber-fading":
        return cfg.n_trials * len(parse_float_list(cfg.ber_ebn0_db)) * len(SYSTEM_ORDER)
    if cfg.experiment == "evm-sweep":
        return cfg.n_trials * 2
    raise ValueError(f"no chain-frame count for {cfg.experiment!r}")


def environment() -> dict:
    openblas = {"config": "unknown", "threads": None}
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)  # already mapped by numpy: same handle
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                openblas = {"config": get_config().decode(), "threads": get_threads()}
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas["config"],
        "openblas_threads": openblas["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "WAVEMOD_THREADS": os.environ.get("WAVEMOD_THREADS", "unset (default 1)"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("study")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    cfg = replace(ExperimentConfig(), experiment=args.study, n_trials=args.trials,
                  output_path=args.out)
    ready = time.perf_counter()

    def study(cfg):
        run_experiment(cfg).write(cfg.output_path)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        study = tracer.wrap(tracing.ROOT, study)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(args.report, "w", encoding="utf-8") as report:
        def emit(record):
            report.write(json.dumps(record) + "\n")
            report.flush()

        emit({"ready": ready, "wavemod": os.path.dirname(wavemod.cli.__file__),
              "env": environment()})
        loop_start = time.perf_counter()
        for i in range(args.runs):
            if i and time.perf_counter() - loop_start >= args.seconds:
                break
            seed = seeds[i % len(seeds)]
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            study(replace(cfg, seed=seed))
            study_s = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            with open(args.out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            emit({"seed": seed, "study_s": study_s,
                  "cpu_s": (after.ru_utime + after.ru_stime)
                  - (before.ru_utime + before.ru_stime),
                  "chain_frames": chain_frames(cfg), "sha256": digest})
        emit({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "spans": tracer.spans if tracer else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
