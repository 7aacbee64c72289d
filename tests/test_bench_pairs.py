"""The pair runner's summary and report layout, on canned run results: no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"run_s": "lower", "pixels_per_s": "higher", "accuracy": "higher"}


def payload(run_s, pixels_per_s, accuracy=0.9):
    values = {"run_s": (run_s, "s"), "pixels_per_s": (pixels_per_s, "1/s"),
              "accuracy": (accuracy, "fraction")}
    return {"correct": True, "attempted": 30, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def run_output(run_s, digest="f6540c259852ad11"):
    """Standard output of one perfbench run, in its layout."""
    return "\n".join([
        "# workload=map seed=7 seconds=40 trace=0",
        "# blas_threads=1 (pinned; openblas reports numpy=1, scipy=1)",
        f"op classify accuracy=0.9725 sha256={digest}",
        f"metric run_s {run_s:.6g} s",
        json.dumps(payload(run_s, 1.0 / run_s)),
    ]) + "\n"


def canned_run(times, digests=None):
    """A stand-in for run_side that replays one run_s per call and records
    which side ran."""
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append(checkout)
        digest = (digests or {}).get((checkout, len(calls)), "f6540c259852ad11")
        return bench_pairs.parse_run(run_output(times[len(calls) - 1], digest))

    return run, calls


def test_parse_run_reads_the_result_line_op_lines_and_threads():
    result, ops, threads = bench_pairs.parse_run(run_output(0.43))
    assert result["metrics"]["run_s"] == {"value": 0.43, "unit": "s"}
    assert ops == ["op classify accuracy=0.9725 sha256=f6540c259852ad11"]
    assert threads == 1


def test_pairs_alternate_which_side_runs_first():
    times = [0.50, 0.45, 0.44, 0.51, 0.49, 0.43, 0.42, 0.48]
    run, calls = canned_run(times)
    sides = {"parent": "P", "change": "C"}
    pairs, ops, threads = bench_pairs.run_pairs(sides, "map", 7, 40, 4, run=run)
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change"]
    assert [p["pair"] for p in pairs] == [1, 2, 3, 4]
    assert [p["parent"]["metrics"]["run_s"]["value"] for p in pairs] == [0.50, 0.51, 0.49, 0.48]
    assert [p["change"]["metrics"]["run_s"]["value"] for p in pairs] == [0.45, 0.44, 0.43, 0.42]
    assert list(pairs[0]) == ["pair", "first", "parent", "change"]
    assert ops == ["op classify accuracy=0.9725 sha256=f6540c259852ad11"]
    assert threads == [1]


def test_a_side_whose_outputs_change_between_runs_stops_the_pairs():
    run, _ = canned_run([0.5] * 4, digests={("C", 3): "0000000000000000"})
    with pytest.raises(RuntimeError, match="pair 2: change outputs differ"):
        bench_pairs.run_pairs({"parent": "P", "change": "C"}, "map", 7, 40, 2, run=run)


def test_sides_whose_outputs_differ_stop_the_pairs():
    run, calls = canned_run([0.5] * 4, digests={("C", 2): "0000000000000000"})
    with pytest.raises(RuntimeError, match="pair 1: the two sides' outputs differ"):
        bench_pairs.run_pairs({"parent": "P", "change": "C"}, "map", 7, 40, 2, run=run)
    assert calls == ["P", "C"]


def test_summary_medians_quartiles_wins_and_losses():
    parent = [0.48, 0.46, 0.47, 0.50, 0.45]
    change = [0.43, 0.44, 0.47, 0.42, 0.46]
    pairs = [
        {"pair": i + 1, "first": "parent", "parent": payload(p, 1 / p), "change": payload(c, 1 / c)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert list(summary) == ["run_s", "pixels_per_s", "accuracy"]
    run_s = summary["run_s"]
    assert run_s["unit"] == "s"
    assert run_s["parent_median"] == 0.47
    assert run_s["change_median"] == 0.44
    # Inclusive quartiles: of 0.45..0.50 sorted, a quarter and three
    # quarters of the way between the first and last of the five.
    assert run_s["parent_q1_q3"] == pytest.approx([0.46, 0.48])
    assert run_s["change_q1_q3"] == pytest.approx([0.43, 0.46])
    # One tie (0.47 against 0.47) counts for neither side; the 0.46 change
    # run loses to the 0.45 parent run.
    assert (run_s["change_wins"], run_s["change_losses"]) == (3, 1)
    # Higher is better for throughput, so the same pairs win there too.
    assert (summary["pixels_per_s"]["change_wins"], summary["pixels_per_s"]["change_losses"]) == (3, 1)
    assert (summary["accuracy"]["change_wins"], summary["accuracy"]["change_losses"]) == (0, 0)
    assert not bench_pairs.claimable(run_s, 5, "lower")  # 3 wins of 5
    assert bench_pairs.claimable(dict(run_s, change_wins=5, change_losses=0), 5, "lower")
    # A median gap inside the parent's interquartile range is no gain.
    assert not bench_pairs.claimable(
        dict(run_s, change_wins=5, change_median=0.465), 5, "lower"
    )
    assert not bench_pairs.claimable(dict(run_s, change_wins=5), 5, "higher")


def test_one_pair_has_its_value_as_both_quartiles():
    pairs = [{"pair": 1, "first": "parent", "parent": payload(0.5, 2.0), "change": payload(0.4, 2.5)}]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["run_s"]["parent_q1_q3"] == [0.5, 0.5]


def test_render_writes_one_metric_or_pair_a_line_and_parses_back():
    pair = {"pair": 1, "first": "parent", "parent": payload(0.5, 2.0), "change": payload(0.4, 2.5)}
    summary = bench_pairs.summarize([pair], BETTER)
    report = {
        "workload": "map", "seed": 7, "summary": summary, "op_lines": ["op a"], "pairs": [pair],
        "holdout": {"seed": 29, "summary": summary, "pairs": [pair, pair]},
    }
    text = bench_pairs.render(report)
    assert json.loads(text) == report
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert ' "workload": "map",' in lines
    assert ' "op_lines": ["op a"],' in lines
    assert '  "run_s": ' + json.dumps(summary["run_s"]) + "," in lines
    assert "  " + json.dumps(pair) in lines
    assert lines.count("   " + json.dumps(pair) + ",") == 1  # the holdout's pairs
