"""Tests of the benchmark itself: failure counting, traced bytes, exact counts.

    python3 -m pytest perfbench/tests -q

Every study run is a real child interpreter checked against the committed
references, so this takes about half a minute.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = run.STUDY_SEEDS[0]


def committed_references(workload):
    return run.references_for(workload, run.load_references())


def one_study(workload, seeds=(DEFAULT_SEED,), traced=False):
    return run.run_child(workload, seeds, runs=len(seeds), seconds=math.inf, traced=traced)


def test_failed_frac_counts_a_wrong_reference_hash():
    workload = run.WORKLOADS["evm-rx"]
    references = dict(committed_references(workload))
    references[1] = "0" * 64
    child = run.check(one_study(workload, seeds=(DEFAULT_SEED, 1)), references)
    good, bad = child.studies
    assert good.error is None
    assert bad.error.startswith("sha256 ")
    assert run.summarise([child]) == {"attempted": 2, "failed": 1, "failed_frac": 0.5}
    assert run.end_to_end([child])["ok_frac"] == (0.5, "frac")


def test_failed_frac_counts_a_raised_exception():
    # a negative seed makes numpy's seed sequence raise inside the study
    child = one_study(run.Workload("evm-sweep", 2), seeds=(-1,))
    assert [study.error.split(":")[:2] for study in child.studies] == [["exit 1", " ValueError"]]
    assert run.summarise([child])["failed_frac"] == 1.0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_and_untraced_runs_write_identical_bytes(name):
    workload = run.WORKLOADS[name]
    references = committed_references(workload)
    plain = run.check(one_study(workload), references)
    traced = run.check(one_study(workload, traced=True), references)
    assert [s.error for s in plain.studies + traced.studies] == [None, None]
    assert traced.spans and not plain.spans
    stem = f"{workload.study}-{workload.trials}"
    assert (run.OUT / f"{stem}-traced.csv").read_bytes() == \
        (run.OUT / f"{stem}-plain.csv").read_bytes()


def test_call_counts_and_mmac_repeat_across_traced_runs():
    workload = run.WORKLOADS["ber-link"]
    first, second = (run.per_layer([one_study(workload, traced=True)])[0] for _ in range(2))
    exact = [key for key in first if key.endswith(".calls") or key == "filterbank.mmac"]
    assert first["filterbank.mmac"][0] > 0
    assert first["channel.equalize.sc_wpm.calls"][0] > 0
    assert {key: first[key] for key in exact} == {key: second[key] for key in exact}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(100)) == ("90", 89)
    assert run.tail(range(1000)) == ("99", 989)
    assert run.tail(range(19)) == (None, 0.0)


def test_self_time_subtracts_direct_children():
    spans = [
        ["experiments.run", None, 0.0, 10.0, -1, 0],
        ["modem.ofdm_modulate", "wpm", 1.0, 5.0, 0, 0],
        ["filterbank.iwpt", "wpm", 2.0, 4.0, 1, 0],
        ["metrics.papr_db", "wpm", 6.0, 7.0, 0, 0],
        ["experiments.run", None, 10.0, 11.0, -1, 0],
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 2.0, 1.0, 1.0]
    assert run.executions(spans) == [(0, 4), (4, 5)]
