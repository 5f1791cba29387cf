"""The paired-record summary in bench/record.py: quartiles, ratios,
pair wins and the bound check in the direction each metric counts as
better."""

import importlib.util
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "bench" / "record.py"


def _load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summary_pairs_runs_by_seed():
    record = _load_record()
    base, head = [10.0, 20.0, 30.0, 40.0, 50.0], [15.0, 20.0, 60.0, 20.0, 100.0]
    higher = record._summary(base, head, "higher")
    assert higher["pairs"] == 5
    assert higher["head_wins"] == 3  # the tie at 20 counts for neither side
    assert (higher["base_q1"], higher["base_median"], higher["base_q3"]) == (20.0, 30.0, 40.0)
    assert higher["head_median"] == 20.0
    # Ratios 1.5, 1, 2, 0.5, 2 are paired by seed, not by rank.
    assert (higher["ratio_q1"], higher["ratio_median"], higher["ratio_q3"]) == (1.0, 1.5, 2.0)
    assert record._summary(base, head, "lower")["head_wins"] == 1


def test_summary_of_one_pair():
    s = _load_record()._summary([2.0], [1.0], "lower")
    assert s["head_wins"] == 1 and s["pairs"] == 1
    assert s["ratio_q1"] == s["ratio_median"] == s["ratio_q3"] == pytest.approx(0.5)


def test_bound_flags_a_median_worse_by_more_than_the_bound():
    beyond = _load_record()._beyond_bound
    # 30 % worse against a 0.25 bound is flagged, 20 % worse is not.
    assert beyond(10.0, 7.0, "higher", 0.25)
    assert not beyond(10.0, 8.0, "higher", 0.25)
    assert beyond(10.0, 13.0, "lower", 0.25)
    assert not beyond(10.0, 12.0, "lower", 0.25)
    # Better in either direction is never flagged.
    assert not beyond(10.0, 20.0, "higher", 0.25)
    assert not beyond(10.0, 5.0, "lower", 0.25)


def test_record_sums_failed_operations_and_checks_each_bound(monkeypatch):
    record = _load_record()
    fake = {"base": (10.0, 2), "head": (7.0, 0)}  # ops_per_s and failed per run

    def run(checkout, workload, seed, seconds):
        ops, failed = fake["base" if checkout == "BASE" else "head"]
        return {"correct": True, "attempted": 50, "failed": failed,
                "metrics": {"ops_per_s": {"value": ops}}}

    monkeypatch.setattr(record, "_run", run)
    bench = {"workloads": [{"name": "w"}], "run_seconds": 1,
             "end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",
                             "bound": 0.25}]}
    out = record.record("BASE", bench, [1, 2, 3])["w"]
    assert out["failed"] == {"base": 6, "head": 0}
    assert out["metrics"]["ops_per_s"]["beyond_bound"]
    assert out["metrics"]["ops_per_s"]["bound"] == 0.25
