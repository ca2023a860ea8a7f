"""wavemod benchmark: Monte-Carlo study throughput, set-up time and per-layer cost.

    python3 perfbench/run.py --workload papr-tx --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --full-check
    python3 perfbench/run.py --record

Run from the repository root.  A workload runs one packaged study at its
default config; the benchmark sets only the seed and the trial count, sized so
that one study run takes about a second.  Each child is a fresh interpreter
started from this process, one at a time (``perfbench/child.py``), with
``WAVEMOD_THREADS`` and the OpenBLAS thread count left at their defaults.

``--trace 0`` starts ``SETUP_PROBES`` children that only set up, then one
child that repeats the study for ``--seconds``, cycling through the recorded
study seeds in an order drawn from ``--seed``.  It reports the end-to-end
metrics as medians: over the study runs, and over every child for set-up.
``--trace 1`` splits ``--seconds`` between an untraced and a traced child and
reports the per-layer metrics.  The traced child wraps the layer functions
from outside the package (``tracer.py``) and runs under ``python -X
importtime`` for the set-up breakdown.  Per-call timings pool every call and
are reported as a median and the highest percentile with at least 10 samples
beyond it.

Every study run's CSV must match its recorded sha256 in ``references.json``;
a run that writes other bytes fails, and a child that exits nonzero or times
out adds one failed run.

``--full-check`` (untimed, about 45 s) regenerates the five default CSVs with
the real CLI and compares them with the published sha256 prefixes.
``--record`` re-records ``references.json``, only after the full check passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable table, the
environment and a report file under ``perfbench/_out/`` come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"

SETUP_PROBES = 3
MAX_STUDY_RUNS = 100_000
DEADLINE_S = 170.0
STARTED = time.perf_counter()


@dataclass(frozen=True)
class Workload:
    study: str
    trials: int


# Trial counts make one study run last about a second on a 2-core 2.1 GHz VM.
# BENCHMARK.json records why each workload is there.
WORKLOADS = {
    "papr-tx": Workload("papr-ccdf", 250),
    "ber-link": Workload("ber-fading", 16),
    "evm-rx": Workload("evm-sweep", 64),
}
# The default seed and seven held-out ones; each has a recorded CSV hash.
STUDY_SEEDS = (20110223, 1, 2, 3, 4, 5, 6, 7)

# sha256 prefixes of the five default CSVs (``wavemod <study> --out f.csv``).
FULL_CHECK = {
    "papr-ccdf": "68ef5bb503d8931d",
    "evm-sweep": "c12accc8f85a43b3",
    "ber-fading": "4f77ae341ee0a667",
    "se-table": "bf3e265290a5702c",
    "modgauss-report": "a096cc57786e6b4e",
}

SYSTEMS = ("wpm", "ofdm", "sc_wpm", "sc_ofdm")
PER_SYSTEM = ("modem.ofdm_modulate", "modem.ofdm_demodulate", "channel.equalize")
TIMED_SPANS = (
    "filterbank.analysis_step", "filterbank.synthesis_step", "filterbank.wpt",
    "filterbank.iwpt", "filterbank.from_flat",
    *(f"modem.ofdm_modulate.{s}" for s in SYSTEMS),
    *(f"modem.ofdm_demodulate.{s}" for s in SYSTEMS),
    "modem.map_bits", "modem.demap_symbols",
    "channel.apply_multipath", "channel.awgn",
    *(f"channel.equalize.{s}" for s in SYSTEMS),
    "metrics.papr_db", "metrics.evm",
)
IMPORTED = (
    "wavemod", "wavemod.errors", "wavemod._wavelet_coeffs", "wavemod.filterbank",
    "wavemod.waveletdesign", "wavemod.modem", "wavemod.channel",
    "wavemod.metrics", "wavemod.configio", "wavemod.experiments", "wavemod.cli",
)
IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", re.M)
TAIL_LADDER = ("99.99", "99.9", "99", "90", "50")


@dataclass
class StudyRun:
    """One run of the study inside a child; ``error`` is None when it passed."""

    seed: int | None
    error: str | None = None
    study_s: float = 0.0
    cpu_s: float = 0.0
    chain_frames: int = 0
    sha256: str = ""

    @property
    def frames_per_s(self) -> float:
        return self.chain_frames / self.study_s


@dataclass
class Child:
    """One fresh interpreter: its set-up time and the study runs it made."""

    traced: bool
    setup_s: float | None = None
    maxrss_kb: int = 0
    env: dict = field(default_factory=dict)
    studies: list = field(default_factory=list)
    spans: list = field(default_factory=list, repr=False)
    imports: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("WAVEMOD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)  # leave both thread counts at their defaults
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_left() -> float:
    return DEADLINE_S - (time.perf_counter() - STARTED)


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def references_for(workload: Workload, refs: dict) -> dict:
    table = refs.get(workload.study, {}).get(str(workload.trials), {})
    return {int(seed): digest for seed, digest in table.items()}


def run_child(workload: Workload, seeds, runs: int, seconds: float, traced: bool = False,
              timeout: float = 150.0) -> Child:
    """Start one child interpreter and collect its report.

    A crash or timeout is recorded as one more failed study run."""
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.study}-{workload.trials}-{'traced' if traced else 'plain'}"
    csv, report = OUT / f"{tag}.csv", OUT / f"{tag}.jsonl"
    report.unlink(missing_ok=True)
    argv = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD),
            workload.study, "--trials", str(workload.trials),
            "--seeds", ",".join(map(str, seeds)), "--runs", str(runs),
            "--seconds", str(seconds), "--out", str(csv), "--report", str(report),
            *(["--trace"] if traced else [])]
    child = Child(traced)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
        crash = None
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            crash = f"exit {proc.returncode}: {last[0]}"
    except subprocess.TimeoutExpired:
        proc, crash = None, f"timed out after {timeout:.0f} s"
    records = []
    if report.exists():
        with open(report, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    for record in records:
        if "ready" in record:
            if Path(record["wavemod"]) != ROOT / "src" / "wavemod":
                crash = f"imported wavemod from {record['wavemod']}, not src/wavemod"
                break
            child.setup_s = record["ready"] - start
            child.env = record["env"]
        elif "seed" in record:
            child.studies.append(StudyRun(**record))
        else:
            child.maxrss_kb = record["maxrss_kb"]
            child.spans = record["spans"] or []
    if crash:
        child.studies.append(StudyRun(None, error=crash))
    elif proc is not None:
        child.imports = {name: int(us) / 1e6 for us, name in IMPORT_LINE.findall(proc.stderr)
                         if name == "wavemod" or name.startswith("wavemod.")}
    return child


def check(child: Child, references: dict) -> Child:
    """Fail every study run whose CSV does not match its recorded sha256."""
    for study in child.studies:
        if study.error is None:
            expected = references.get(study.seed)
            if expected is None:
                study.error = f"no reference sha256 for seed {study.seed}"
            elif study.sha256 != expected:
                study.error = f"sha256 {study.sha256[:16]} != reference {expected[:16]}"
    return child


def warm_up() -> None:
    """Untimed import, so bytecode compilation and a cold page cache are paid once."""
    subprocess.run([sys.executable, "-c", "import wavemod.cli"], cwd=ROOT,
                   env=child_env(), capture_output=True, check=False, timeout=120)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> list:
    """Untraced: set-up probes, then one child measuring for ``seconds``.
    Traced: an untraced and a traced child, ``seconds / 2`` each."""
    workload = WORKLOADS[name]
    references = references_for(workload, load_references())
    seeds = random.Random(seed).sample(STUDY_SEEDS, len(STUDY_SEEDS))
    warm_up()
    if trace:
        plan = [(MAX_STUDY_RUNS, seconds / 2, False), (MAX_STUDY_RUNS, seconds / 2, True)]
    else:
        plan = [(0, 0.0, False)] * SETUP_PROBES + [(MAX_STUDY_RUNS, seconds, False)]
    return [check(run_child(workload, seeds, runs, span, traced, max(time_left(), 5.0)),
                  references)
            for runs, span, traced in plan]


def study_runs(children) -> list:
    return [study for child in children for study in child.studies]


def summarise(children) -> dict:
    studies = study_runs(children)
    failed = sum(study.error is not None for study in studies)
    return {"attempted": len(studies), "failed": failed,
            "failed_frac": failed / len(studies) if studies else 1.0}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    for label in TAIL_LADDER:
        rank = math.ceil(Fraction(label) * n / 100)
        if rank >= 1 and n - rank >= 10:
            return label, ordered[rank - 1]
    return None, 0.0


def passed(children, traced: bool) -> list:
    return [study for child in children if child.traced == traced
            for study in child.studies if study.error is None]


def end_to_end(children) -> dict:
    plain = [child for child in children if not child.traced]
    good = passed(plain, traced=False)
    return {
        "frames_per_s": (median(s.frames_per_s for s in good), "frames/s"),
        "setup_s": (median(c.setup_s for c in plain if c.setup_s is not None), "s"),
        "cpu_ms_per_frame": (median(1e3 * s.cpu_s / s.chain_frames for s in good), "ms"),
        "peak_rss_mb": (median(c.maxrss_kb / 1024 for c in plain if c.studies and c.maxrss_kb),
                        "MB"),
        "ok_frac": (1.0 - summarise(children)["failed_frac"], "frac"),
    }


def span_key(name: str, system) -> str:
    return f"{name}.{system}" if name in PER_SYSTEM else name


def executions(spans) -> list:
    """(first, stop) index ranges of the spans under each root span."""
    starts = [i for i, span in enumerate(spans) if span[4] < 0] + [len(spans)]
    return list(zip(starts[:-1], starts[1:]))


def per_layer(children):
    """Per-layer metrics and, per timed span, (percentile label, sample count).

    Counts, shares and the mac rate are per study run (the spans under one
    root), then the median over runs; per-call times pool every call."""
    durations = {key: [] for key in TIMED_SPANS}
    calls = {key: [] for key in TIMED_SPANS}
    shares = {layer: [] for layer in tracer.LAYERS}
    mmac, mmac_per_s, imports = [], [], []
    for child in children:
        if not child.traced or not child.spans:
            continue
        imports.append(child.imports)
        spans, own = child.spans, tracer.self_times(child.spans)
        for first, stop in executions(spans):
            counted = dict.fromkeys(TIMED_SPANS, 0)
            layer_own = dict.fromkeys(tracer.LAYERS, 0.0)
            macs = 0
            for span, self_s in zip(spans[first:stop], own[first:stop]):
                name, system, start, end, _, span_macs = span
                key = span_key(name, system)
                if key in durations:
                    durations[key].append(1e6 * (end - start))
                    counted[key] += 1
                layer_own[name.split(".", 1)[0]] += self_s
                macs += span_macs
            for key, count in counted.items():
                calls[key].append(count)
            total = sum(layer_own.values())
            for layer in tracer.LAYERS:
                shares[layer].append(layer_own[layer] / total)
            mmac.append(macs / 1e6)
            fb = layer_own["filterbank"]
            mmac_per_s.append(macs / 1e6 / fb if fb else 0.0)
    metrics, tails = {}, {}
    for key in TIMED_SPANS:
        label, value = tail(durations[key])
        metrics[f"{key}.calls"] = (median(calls[key]), "count")
        metrics[f"{key}.us_per_call"] = (median(durations[key]), "us")
        metrics[f"{key}.us_tail"] = (value, "us")
        tails[key] = (label, len(durations[key]))
    metrics["filterbank.mmac"] = (median(mmac), "Mmac")
    metrics["filterbank.mmac_per_s"] = (median(mmac_per_s), "Mmac/s")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_share"] = (median(shares[layer]), "frac")
    for module in IMPORTED:
        metrics[f"import.{module}_s"] = (median(i.get(module, 0.0) for i in imports), "s")
    untraced = median(s.frames_per_s for s in passed(children, traced=False))
    traced = median(s.frames_per_s for s in passed(children, traced=True))
    metrics["trace.overhead"] = (traced / untraced if untraced else 0.0, "ratio")
    return metrics, tails


def print_table(name: str, seed: int, children, metrics: dict, tails: dict) -> None:
    workload, counts = WORKLOADS[name], summarise(children)
    per_study = f"median of {len(passed(children, traced=False))} study runs"
    e2e_notes = {
        "frames_per_s": per_study,
        "cpu_ms_per_frame": per_study,
        "setup_s": f"median of {sum(c.setup_s is not None for c in children)} fresh interpreters",
        "peak_rss_mb": "the interpreter that ran the studies",
        "ok_frac": "1 - failed_frac",
    }
    print(f"workload {name}: {workload.study}, {workload.trials} trials per study run, "
          f"bench seed {seed}, study seeds in order "
          f"{random.Random(seed).sample(STUDY_SEEDS, len(STUDY_SEEDS))}")
    print(f"study runs: {counts['attempted']} attempted, {counts['failed']} failed, "
          f"failed_frac {counts['failed_frac']:.4f} frac")
    for study in study_runs(children):
        if study.error:
            print(f"  FAILED seed {study.seed}: {study.error}")
    for key, (value, unit) in metrics.items():
        note = ""
        span = key.rsplit(".", 1)[0]
        if key.endswith(".us_tail") and span in tails:
            label, n = tails[span]
            note = f"  (p{label}, n={n})" if label else f"  (n={n}: too few for a tail)"
        elif key.endswith(".us_per_call") and span in tails:
            note = f"  (median, n={tails[span][1]})"
        elif key.endswith(".calls"):
            note = "  (per study run)"
        elif key.startswith("filterbank.mmac"):
            note = "  (computed: direct-form multiply-adds per study run)"
        elif key in e2e_notes:
            note = f"  ({e2e_notes[key]})"
        print(f"  {key:40s} {value:14.6g} {unit}{note}")
    env = next((child.env for child in children if child.env), {})
    print("env " + json.dumps({**env, "seed": seed}, sort_keys=True))


def full_check() -> int:
    """Regenerate the five default CSVs with the CLI; returns the mismatch count."""
    OUT.mkdir(parents=True, exist_ok=True)
    mismatches = 0
    for study, prefix in FULL_CHECK.items():
        out = OUT / f"full-{study}.csv"
        out.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "wavemod.cli", study, "--out", str(out)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=600)
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if proc.returncode == 0 else ""
        ok = digest.startswith(prefix) and bool(digest)
        mismatches += not ok
        found = digest[:16] if digest else f"exit {proc.returncode}"
        print(f"{study:16s} {found:16s} reference {prefix} {'ok' if ok else 'MISMATCH'}")
    return mismatches


def record() -> int:
    """Re-record references.json from this commit, once its full check passes."""
    if full_check():
        print("full check failed: references not recorded", file=sys.stderr)
        return 1
    refs = {}
    for workload in WORKLOADS.values():
        child = run_child(workload, STUDY_SEEDS, len(STUDY_SEEDS), math.inf, timeout=600)
        errors = [study.error for study in child.studies if study.error]
        if errors or len(child.studies) != len(STUDY_SEEDS):
            print(f"{workload.study}: {errors}", file=sys.stderr)
            return 1
        refs[workload.study] = {str(workload.trials): {
            str(study.seed): study.sha256 for study in child.studies}}
        for study in child.studies:
            print(f"{workload.study} trials {workload.trials} seed {study.seed}: {study.sha256}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--full-check", action="store_true")
    mode.add_argument("--record", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavemod" / "__init__.py").is_file():
        print(f"perfbench: no wavemod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.full_check:
        return 1 if full_check() else 0
    if args.record:
        return record()

    children = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, tails = per_layer(children)
    else:
        metrics, tails = end_to_end(children), {}
    print_table(args.workload, args.seed, children, metrics, tails)
    counts = summarise(children)
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    report = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        **result,
        "tails": tails,
        "children": [{k: v for k, v in vars(child).items() if k != "spans"}
                     for child in children],
    }, indent=1, default=vars), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
