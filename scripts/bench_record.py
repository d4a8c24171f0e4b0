"""Run perfbench on one or more checkouts and record the results in the tree.

    python scripts/bench_record.py --name 7 --run parent=../parent --run change=. \
        --workloads chains-highdim,sweep-lowdim --seeds 11,12,13 [--trace 0]

Each --run LABEL=PATH names a checkout (a directory with src/ and perfbench/).
For every workload and seed the checkouts run perfbench/run.py from their own
tree, for the run_seconds that BENCHMARK.json fixes, one after another; the
order alternates from one seed to the next, so two checkouts give
alternating before/after pairs.  Each run's final JSON line is appended,
with its label, commit, workload, seed and trace flag, to BENCH_<name>.json
at the root of this repository (a JSON list, rewritten after every run, so
an interrupted session keeps the runs it finished).

An A/A comparison needs no option of its own: name one checkout twice
under two labels (--run a=. --run b=.), and the paired statistics below
show the spread of a ratio between identical trees.

With two or more --run labels it then prints, for each workload and
end-to-end metric, the untraced runs of the first two labels paired by seed
over the whole file (a traced run reports no end-to-end metric): the pair
count, the pairs the second label won by the metric's "better" direction
(ties count for neither), the median of the per-pair
ratios second/first, the first label's interquartile range over its
median, a distribution-free 95 % interval for the median per-pair log
ratio: the Hodges-Lehmann interval, read off the sorted Walsh averages at
the exact Wilcoxon signed-rank critical value ("n/a" below 6 pairs, where
no such interval exists), and a verdict against the metric's bound in
BENCHMARK.json:

    unresolved          the first label's IQR over its median exceeds the
                        bound, and the runs do not separate (neither label
                        has every run better than every run of the other);
    worse beyond bound  the second label's median is worse than the first's
                        by more than the bound, relative to the first's;
    within bound        otherwise.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]


def _commit(path):
    """HEAD of the checkout, with '-dirty' when its tracked files differ."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return None
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _run(path, workload, seed, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(cmd)} in {path} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _signed_rank_critical(n):
    """Largest c with P(T <= c) <= 0.025 for the Wilcoxon signed-rank
    statistic T of n pairs under its exact null law, or None if there is none."""
    counts = [1]  # counts[s]: the subsets of {1, ..., k} with sum s
    for k in range(1, n + 1):
        counts = [a + (counts[s - k] if s >= k else 0) for s, a in enumerate(counts + [0] * k)]
    c, below = None, 0
    for s, count in enumerate(counts):
        below += count
        if below > 0.025 * 2**n:
            return c
        c = s
    return c


def hodges_lehmann_interval(values):
    """The distribution-free 95 % interval for the median (Hodges-Lehmann)
    of values, from their Walsh averages (x_i + x_j)/2, i <= j: the (c+1)-th
    smallest to the (c+1)-th largest, c the signed-rank critical value.
    None when no c exists (fewer than 6 values)."""
    c = _signed_rank_critical(len(values))
    if c is None:
        return None
    walsh = sorted((x + y) / 2 for i, x in enumerate(values) for y in values[i:])
    return walsh[c], walsh[-1 - c]


def _relative_iqr(values):
    """The interquartile range of values over their median."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, metric):
    """The verdict on runs b against runs a for one end-to-end metric, as
    the module docstring defines it."""
    sign, bound = (1 if metric["better"] == "higher" else -1), metric["bound"]
    if _relative_iqr(a) > bound and not (max(a) < min(b) or max(b) < min(a)):
        return "unresolved"
    first, second = statistics.median(a), statistics.median(b)
    return "worse beyond bound" if sign * (first - second) > bound * abs(first) else "within bound"


def paired_summary(records, first, second, end_to_end=BENCHMARK["end_to_end"]):
    """One line per workload and end-to-end metric comparing label second to first."""
    runs = {}
    for rec in records:
        key = (rec["workload"], rec["trace"], rec["seed"])
        runs.setdefault(key, {})[rec["label"]] = rec["result"]["metrics"]
    lines = []
    for workload in dict.fromkeys(rec["workload"] for rec in records):
        pairs = [
            (labels[first], labels[second]) for (w, traced, _), labels in runs.items()
            if w == workload and not traced and first in labels and second in labels
        ]
        if not pairs:
            continue
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            a = [one[name]["value"] for one, _ in pairs]
            b = [two[name]["value"] for _, two in pairs]
            won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            ratio = statistics.median(y / x for x, y in zip(a, b))
            positive = all(x > 0 and y > 0 for x, y in zip(a, b))
            hl = positive and hodges_lehmann_interval([math.log(y / x) for x, y in zip(a, b)])
            lines.append(
                f"{workload} {name}: {len(pairs)} pairs, {second} ahead in {won}, "
                f"median ratio {ratio:.4f}, {first} IQR {_relative_iqr(a):.2%}, "
                "95% HL interval of log ratio "
                + (f"[{hl[0]:+.4f}, {hl[1]:+.4f}]" if hl else "n/a")
                + f", {verdict(a, b, metric)}"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True, help="the file written is BENCH_<name>.json")
    parser.add_argument("--run", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs = []
    for item in args.run:
        label, sep, path = item.partition("=")
        if not (sep and label and Path(path, "perfbench", "run.py").is_file()):
            parser.error(f"--run {item!r}: expected LABEL=PATH to a checkout with perfbench/run.py")
        path = Path(path).resolve()
        runs.append((label, path, _commit(path)))
    seeds = [int(s) for s in args.seeds.split(",")]
    out = ROOT / f"BENCH_{args.name}.json"
    records = json.loads(out.read_text()) if out.exists() else []
    for workload in args.workloads.split(","):
        for index, seed in enumerate(seeds):
            for label, path, commit in runs if index % 2 == 0 else runs[::-1]:
                result = _run(path, workload, seed, args.trace)
                records.append({
                    "label": label, "commit": commit, "workload": workload, "seed": seed,
                    "trace": args.trace, "result": result,
                })
                out.write_text(json.dumps(records, indent=1) + "\n")
                print(f"{workload} seed {seed} {label}: correct={result['correct']}", flush=True)
    if len(runs) > 1:
        print("\n".join(paired_summary(records, runs[0][0], runs[1][0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
