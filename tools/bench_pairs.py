"""Alternating benchmark pairs of two commits, written as a BENCH_<workload>.json.

Run from the root of a git checkout:

    python3 tools/bench_pairs.py --workload map --parent afbf4b4 --change HEAD \\
        --seed 7 --pairs 10 --holdout-seed 29 \\
        --host "2-vCPU Xeon VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31"

The workload names and the run length (``run_seconds``) come from the
repository's BENCHMARK.json. Each commit is extracted with ``git archive``
into its own directory, so both sides run exactly their committed files and
the repository's own git state is left alone. Pair i runs
``perfbench/run.py --trace 0`` once on each side, the parent first in odd
pairs and the change first in even ones, so a drift of the host's speed does
not favour one side. The runner stops when a run's operation lines (name,
accuracy, output digest) differ from those of the first run of either side:
times of two programs that compute different outputs are no speed
comparison. The held-out pairs repeat this on
a seed not used while the change was written, HOLDOUT_PAIRS times. The
report goes to BENCH_<workload>.json in the current directory.

The report holds, per end-to-end metric, each side's median and quartiles
(inclusive method) and the pairs the change won and lost by the metric's
direction in BENCHMARK.json, ties counting for neither; the operation lines
both sides share; and every pair's JSON result line. A gain is claimable when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range;
the printed table says which metrics meet that.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
ORDER = "pairs alternate which side runs first, each run in its own checkout (git archive of the commit)"
HOLDOUT_PAIRS = 3
HOLDOUT_NOTE = f"{HOLDOUT_PAIRS} more alternating pairs on a seed not used while the change was written"


def command(workload, seed, seconds):
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def parse_run(stdout):
    """The JSON result line, the op lines and the pinned BLAS thread count
    of one run's standard output."""
    lines = stdout.splitlines()
    threads = next(int(line.split()[1].split("=")[1]) for line in lines
                   if line.startswith("# blas_threads="))
    ops = [line for line in lines if line.startswith("op ")]
    return json.loads(lines[-1]), ops, threads


def run_side(checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``; see ``parse_run``."""
    out = subprocess.run([sys.executable, *command(workload, seed, seconds)], cwd=checkout,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"run in {checkout} exited {out.returncode}:\n{out.stderr}")
    return parse_run(out.stdout)


def run_pairs(checkouts, workload, seed, seconds, n_pairs, run=run_side):
    """``n_pairs`` alternating pairs: (pairs, the op lines both sides share,
    the distinct BLAS thread counts). Raises when a run's op lines differ
    from the first run of its side, or the two sides' op lines differ."""
    pairs, ops, threads = [], {}, set()
    for i in range(n_pairs):
        first = SIDES[i % 2]
        pair = {"pair": i + 1, "first": first}
        for side in (first, SIDES[1 - i % 2]):
            payload, side_ops, side_threads = run(checkouts[side], workload, seed, seconds)
            if ops.setdefault(side, side_ops) != side_ops:
                raise RuntimeError(f"pair {i + 1}: {side} outputs differ from its first run")
            threads.add(side_threads)
            pair[side] = payload
        if ops["parent"] != ops["change"]:
            raise RuntimeError(f"pair {i + 1}: the two sides' outputs differ:\n"
                               + "\n".join(ops["parent"] + ops["change"]))
        pairs.append({key: pair[key] for key in ("pair", "first", *SIDES)})
        print(f"# pair {i + 1}: " + "  ".join(
            f"{side} run_s={pair[side]['metrics']['run_s']['value']:.4f}" for side in SIDES
        ), file=sys.stderr)
    return pairs, ops["change"], sorted(threads)


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs, better):
    """Per metric of the pairs' results: unit, each side's median and
    quartiles, and the pairs the change won and lost; ``better`` maps each
    metric to "lower" or "higher"."""
    summary = {}
    for name, entry in pairs[0]["change"]["metrics"].items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if better[name] == "lower" else -1.0
        gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        summary[name] = {
            "unit": entry["unit"],
            "parent_median": statistics.median(values["parent"]),
            "parent_q1_q3": quartiles(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "change_q1_q3": quartiles(values["change"]),
            "change_wins": sum(g < 0 for g in gaps),
            "change_losses": sum(g > 0 for g in gaps),
        }
    return summary


def claimable(entry, n_pairs, better):
    """Whether a summary entry shows a gain: the change wins at least nine
    tenths of the pairs, and its median is better than the parent's, in the
    direction ``better``, by more than the parent's interquartile range."""
    q1, q3 = entry["parent_q1_q3"]
    gap = entry["parent_median"] - entry["change_median"]
    if better == "higher":
        gap = -gap
    return 10 * entry["change_wins"] >= 9 * n_pairs and gap > q3 - q1


def table(summary, n_pairs, better):
    lines = []
    for name, e in summary.items():
        verdict = "gain" if claimable(e, n_pairs, better[name]) else ""
        lines.append(
            f"{name:14s} parent {e['parent_median']:.6g} [{e['parent_q1_q3'][0]:.6g}, "
            f"{e['parent_q1_q3'][1]:.6g}]  change {e['change_median']:.6g} "
            f"[{e['change_q1_q3'][0]:.6g}, {e['change_q1_q3'][1]:.6g}]  "
            f"wins {e['change_wins']}/{n_pairs} losses {e['change_losses']}  {verdict}"
        )
    return "\n".join(lines)


# Keys whose entries are written one a line; everything else is compact.
EXPANDED = ("summary", "pairs", "holdout")


def render(report, pad=" "):
    """The report as JSON text: one top-level key a line, and one metric or
    pair a line inside the summaries and pair lists."""

    def block(obj, depth):
        inner = pad * (depth + 1)
        if isinstance(obj, list):
            rows = [inner + json.dumps(v) for v in obj]
            return "[\n" + ",\n".join(rows) + "\n" + pad * depth + "]"
        rows = [
            f"{inner}{json.dumps(k)}: "
            + (block(v, depth + 1) if k in EXPANDED else json.dumps(v))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad * depth + "}"

    return block(report, 0) + "\n"


def extract(rev, dest):
    """The committed files of ``rev`` in the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def describe(rev):
    out = subprocess.run(["git", "log", "-1", "--format=%h %s", rev],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--parent", required=True, help="commit measured as the parent")
    p.add_argument("--change", default="HEAD", help="commit measured as the change")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--holdout-seed", type=int)
    p.add_argument("--host", required=True, help="the machine the runs share, for the report")
    return p.parse_args(argv)


def main(argv=None):
    bench = json.loads(Path("BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            extract(rev, checkouts[side])

        def measured(seed, n_pairs):
            pairs, ops, threads = run_pairs(checkouts, args.workload, seed, seconds, n_pairs)
            summary = summarize(pairs, better)
            print(f"# seed {seed}, {n_pairs} pairs\n{table(summary, n_pairs, better)}")
            return {
                "command": " ".join(["python3", *command(args.workload, seed, seconds)]),
                "seed": seed,
                "summary": summary,
                "op_lines": ops,
                "pairs": pairs,
            }, threads

        main_run, threads = measured(args.seed, args.pairs)
        report = {
            "workload": args.workload,
            "command": main_run["command"],
            "seed": args.seed,
            "seconds": seconds,
            "blas_threads": threads[0] if len(threads) == 1 else threads,
            "host": args.host,
            "parent": describe(args.parent),
            "change": describe(args.change),
            "order": ORDER,
            **{k: main_run[k] for k in ("summary", "op_lines", "pairs")},
        }
        if args.holdout_seed is not None:
            holdout, _ = measured(args.holdout_seed, HOLDOUT_PAIRS)
            holdout["note"] = HOLDOUT_NOTE
            report["holdout"] = {k: holdout[k] for k in
                                 ("command", "seed", "note", "summary", "op_lines", "pairs")}
    Path(f"BENCH_{args.workload}.json").write_text(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
