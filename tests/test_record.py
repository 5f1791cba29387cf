"""The paired-record summary in bench/record.py: quartiles, ratios,
pair wins, the bound check and the gain rule in the direction each
metric counts as better, the traced per-layer runs, and the two exported
copies the sides run from."""

import importlib.util
import json
import subprocess
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


def test_paired_bound_reads_the_median_per_seed_ratio(monkeypatch):
    # BENCH_second_cut.json's dw-spectra runs: head drew more slow runs
    # than base, so head's median ops_per_s is 30 % below base's, but the
    # median per-seed ratio is 0.98.
    record = _load_record()
    doc = json.loads((RECORD.parents[1] / "BENCH_second_cut.json").read_text())
    runs = {(r["side"], r["seed"]): r for r in doc["workloads"]["dw-spectra"]["runs"]}

    def run(checkout, workload, seed, seconds, trace=0):
        r = runs["base" if checkout == "BASE" else "head", seed]
        return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                "metrics": {k: {"value": v} for k, v in r["metrics"].items()}}

    monkeypatch.setattr(record, "_run", run)
    bench = {"workloads": [{"name": "dw-spectra"}], "run_seconds": 10,
             "end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",
                             "bound": 0.25}]}
    m = record.record("BASE", "HEAD", bench, doc["seeds"])["dw-spectra"]["metrics"]["ops_per_s"]
    assert m["beyond_bound"] and not m["beyond_bound_paired"]
    assert m["ratio_median"] == pytest.approx(0.984, abs=1e-3)


def test_record_sums_failed_operations_and_checks_each_bound(monkeypatch):
    record = _load_record()
    fake = {"base": (10.0, 2), "head": (7.0, 0)}  # ops_per_s and failed per run

    def run(checkout, workload, seed, seconds, trace=0):
        ops, failed = fake["base" if checkout == "BASE" else "head"]
        return {"correct": True, "attempted": 50, "failed": failed,
                "metrics": {"ops_per_s": {"value": ops}}}

    monkeypatch.setattr(record, "_run", run)
    bench = {"workloads": [{"name": "w"}], "run_seconds": 1,
             "end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",
                             "bound": 0.25}]}
    out = record.record("BASE", "HEAD", bench, [1, 2, 3])["w"]
    assert out["failed"] == {"base": 6, "head": 0}
    assert out["metrics"]["ops_per_s"]["beyond_bound"]
    assert out["metrics"]["ops_per_s"]["bound"] == 0.25


def test_gain_needs_nine_of_ten_wins_and_a_median_beyond_base_quartiles():
    summary = _load_record()._summary
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # quartiles 12.25, 16.75
    # Head better by 5 in every pair: median 19.5 beats 14.5 by more than 4.5.
    assert summary(base, [b + 5.0 for b in base], "higher")["gain_shown"]
    assert summary([-b for b in base], [-b - 5.0 for b in base], "lower")["gain_shown"]
    # Better by 4 in every pair, less than base's quartile distance.
    assert not summary(base, [b + 4.0 for b in base], "higher")["gain_shown"]
    # Better by 20 in 9 pairs and a tie in one: 9 of 10 wins is enough ...
    nine = [b + 20.0 for b in base[:9]] + [base[9]]
    assert summary(base, nine, "higher")["head_wins"] == 9
    assert summary(base, nine, "higher")["gain_shown"]
    # ... but 8 of 10 is not, though the median gain is far beyond 4.5.
    eight = [b + 20.0 for b in base[:8]] + [base[8], base[9] - 1.0]
    assert summary(base, eight, "higher")["head_wins"] == 8
    assert not summary(base, eight, "higher")["gain_shown"]
    # A gain in the other direction is not a gain.
    assert not summary(base, [b + 5.0 for b in base], "lower")["gain_shown"]


def test_record_keeps_one_traced_run_per_side_at_seed_1(monkeypatch):
    record = _load_record()
    calls = []

    def run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout, workload, seed, trace))
        side = "base" if checkout == "BASE" else "head"
        if trace:
            self_s = {"base": 0.008, "head": 0.0001}[side]
            return {"correct": True, "attempted": 5, "failed": 0,
                    "metrics": {"tridiag.self_s": {"value": self_s, "unit": "s"},
                                "tridiag.calls": {"value": 7.0, "unit": "count"}}}
        return {"correct": True, "attempted": 50, "failed": 0,
                "metrics": {"ops_per_s": {"value": 30.0, "unit": "op/s"}}}

    monkeypatch.setattr(record, "_run", run)
    bench = {"workloads": [{"name": "w1"}, {"name": "w2"}], "run_seconds": 1,
             "end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",
                             "bound": 0.25}]}
    out = record.record("BASE", "HEAD", bench, [1, 2, 3])
    traced = [c for c in calls if c[3] == 1]
    assert set(traced) == {("BASE", "w1", 1, 1), ("BASE", "w2", 1, 1),
                           ("HEAD", "w1", 1, 1), ("HEAD", "w2", 1, 1)}
    assert len(traced) == 4
    assert len(calls) - len(traced) == 2 * 2 * 3
    for w in ("w1", "w2"):
        assert out[w]["layers"] == {
            "base": {"tridiag.self_s": 0.008, "tridiag.calls": 7.0},
            "head": {"tridiag.self_s": 0.0001, "tridiag.calls": 7.0}}
        # The traced runs feed no end-to-end metric.
        assert out[w]["metrics"]["ops_per_s"]["base"] == [30.0] * 3


@pytest.mark.parametrize("head_correct, head_failed, status",
                         [(True, 1, 0), (False, 1, 1), (True, 2, 1)])
def test_record_counts_incorrect_runs_and_main_flags_head_worse(
        monkeypatch, tmp_path, capsys, head_correct, head_failed, status):
    record = _load_record()

    def run(checkout, workload, seed, seconds, trace=0):
        base = not Path(checkout).name.startswith("bench-record-head-")
        # Base is incorrect at seed 2 and fails one operation per run.
        correct = seed != 2 if base else head_correct or seed == 2
        return {"correct": correct, "attempted": 50, "failed": 1 if base else head_failed,
                "metrics": {"ops_per_s": {"value": 10.0}}}

    bench = {"workloads": [{"name": "w"}], "run_seconds": 1,
             "end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",
                             "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(record, "ROOT", str(tmp_path))
    monkeypatch.setattr(record, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(record, "_export", lambda rev, into: None)
    monkeypatch.setattr(record, "_copy_checkout", lambda into: None)
    monkeypatch.setattr(record.signal, "signal", lambda *args: None)
    monkeypatch.setattr(record, "_run", run)
    assert record.main(["--base", "BASE", "--label", "t", "--seeds", "3"]) == status
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    # The traced runs at seed 1 count toward neither side.
    assert doc["workloads"]["w"]["incorrect"] == {"base": 1, "head": 0 if head_correct else 2}
    assert doc["workloads"]["w"]["failed"] == {"base": 3, "head": 3 * head_failed}
    assert "incorrect runs  base 1" in capsys.readouterr().out


def test_neither_side_runs_from_the_checkout(monkeypatch, tmp_path):
    # Base runs from its committed files and head from a copy of the
    # checkout's files, modified and not yet added ones included, each in
    # a temporary directory of its own.  In two records of changes that
    # left dw-spectra's code as it was, head ran from the checkout and read
    # dw-spectra about 4 % slower than base.
    record = _load_record()
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    bench = {"workloads": [{"name": "w"}], "run_seconds": 1,
             "end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",
                             "bound": 0.25}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    (repo / "perfbench" / "run.py").write_text("committed\n")
    (repo / ".gitignore").write_text("out/\n")
    git = lambda *args: subprocess.run(["git", "-C", str(repo), *args], check=True,
                                       capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")
    (repo / "perfbench" / "run.py").write_text("modified\n")
    (repo / "perfbench" / "new.py").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "ignored.txt").write_text("ignored\n")
    seen = {}

    def run(checkout, workload, seed, seconds, trace=0):
        files = sorted(str(f.relative_to(checkout)) for f in Path(checkout).rglob("*")
                       if f.is_file())
        seen[checkout] = (files, (Path(checkout) / "perfbench" / "run.py").read_text())
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": {"value": 1.0}}}

    monkeypatch.setattr(record, "ROOT", str(repo))
    monkeypatch.setattr(record, "_run", run)
    monkeypatch.setattr(record.signal, "signal", lambda *args: None)
    assert record.main(["--base", "HEAD", "--label", "t", "--seeds", "2"]) == 0
    assert len(seen) == 2 and str(repo) not in seen
    contents = sorted(seen.values(), key=lambda v: v[1])
    assert contents == [
        ([".gitignore", "BENCHMARK.json", "perfbench/run.py"], "committed\n"),
        ([".gitignore", "BENCHMARK.json", "perfbench/new.py", "perfbench/run.py"], "modified\n")]
    # The copies are temporary.
    assert not any(Path(d).exists() for d in seen)
