"""The paired-record summary in bench/record.py: quartiles, ratios and
pair wins in the direction each metric counts as better."""

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
