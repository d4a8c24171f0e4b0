"""Benchmark of randsteps: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports randsteps from src/.  The
workloads are chains-highdim, sweep-lowdim and predict-grid (see
workloads.py).  With --trace 0 it runs the workload untraced for S seconds
of whole passes and reports the end-to-end metrics of BENCHMARK.json, with
times scaled for the host's speed (calibration.py); with
--trace 1 it runs fixed-size untraced and traced segments, the per-layer
probes and the self-test battery, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are for a reader.  A
full record (provenance, failures by kind) is written to
.bench_out/<workload>-seed<N>-trace<T>.json, and a traced run writes its
spans beside it.
"""

import argparse
import array
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# Set-up time of the frozen copy on the reference machine (see calibration.py).
SETUP_NOMINAL_S = 1.0

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads as wl  # noqa: E402

class Tally:
    """Operations attempted, and failures by 'tag: kinds', split by baseline.

    A failing op whose kinds the baseline is known to show on that input is a
    known baseline defect; a failing op with a baseline_point is one when the
    frozen copy shows the same kinds at the same input.  Known defects lower
    ops_ok_frac and are reported by kind, but only the other failures count
    in `failed` and make the run incorrect: a correct program fails no
    operation, and the defects stay visible without making `failed` depend
    on how many operations a timed run got through.
    """

    def __init__(self, frozen):
        self.frozen = frozen
        self.attempted = 0
        self.trials = 0
        self.predictions = 0
        self.known = Counter()
        self.unexpected = Counter()

    def record(self, op, kinds):
        self.attempted += 1
        self.trials += op.trials
        self.predictions += op.predictions
        if kinds:
            key = f"{op.tag}: {'+'.join(sorted(set(kinds)))}"
            baseline = op.baseline
            if op.baseline_point is not None:
                baseline = self.frozen.baseline_kinds(op.baseline_point)
            bucket = self.known if set(kinds) <= baseline else self.unexpected
            bucket[key] += 1

    @property
    def failed(self):
        return sum(self.unexpected.values())

    @property
    def not_ok(self):
        return sum(self.known.values()) + self.failed


def execute(op, api, tally):
    """Run one operation, check its output, and return its latency in ns."""
    start = time.perf_counter_ns()
    try:
        result = op.run(api)
    except Exception as exc:  # an operation that raises is a failure of its kind
        result = exc
    elapsed = time.perf_counter_ns() - start
    tally.record(op, op.check(result))
    return elapsed


def warm_up(workload, ops, api):
    for op in ops[: workload.warmup_ops]:
        try:
            op.run(api)
        except Exception:  # checked when it runs again, measured
            pass


def provenance(load):
    import randsteps

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "bit_generator": type(randsteps.RandomStream(0).generator.bit_generator).__name__,
        "loadavg_start": load,
    }


def setup_probe(name, seed, baseline):
    """Body of one set-up measurement: import, build the inputs of the first pass."""
    if baseline:
        rs = calibration.frozen()
    else:
        import randsteps as rs
        import randsteps.cli  # noqa: F401
    next(wl.WORKLOADS[name].passes(random.Random(seed), rs))


def measure_setup(name, seed):
    """Median time from a fresh interpreter to the first operation ready: scaled, raw.

    Probes of the program alternate with probes that do the same on the
    frozen copy; the scale is SETUP_NOMINAL_S over the frozen probes' median.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
        "--seed", str(seed), "--seconds", "0",
    ]
    times = {False: [], True: []}
    for _ in range(SETUP_PROBES):
        for baseline in (False, True):
            start = time.perf_counter()
            subprocess.run(cmd + ["--baseline"] * baseline, check=True, timeout=120, stdout=subprocess.DEVNULL)
            times[baseline].append(time.perf_counter() - start)
    raw = statistics.median(times[False])
    return raw * SETUP_NOMINAL_S / statistics.median(times[True]), raw


def latency_metrics(ns, tags, rank_by_tag):
    ms = [t / 1e6 for t in ns]
    ranked = ms
    if rank_by_tag:
        by_tag = {}
        for tag, t in zip(tags, ms):
            by_tag.setdefault(tag, []).append(t)
        ranked = [statistics.median(v) for v in by_tag.values()]
    return {
        "ops_per_s": 1e3 * len(ms) / sum(ms),
        "op_ms_p50": statistics.median(ranked),
        "op_ms_p90": statistics.quantiles(ranked, n=10, method="inclusive")[8],
    }


def peak_rss_mb():
    """Own peak RSS plus that of the fanned-out workers (largest child per worker).

    Read while the frozen-copy helper still runs: a child counts only once
    it has ended, so neither the helper nor its workers are included.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + wl.WORKERS * child) / 1024.0


def end_to_end(name, seed, seconds, rs, tally):
    workload = wl.WORKLOADS[name]
    api = wl.bind(None)
    rng = random.Random(seed)
    passes = workload.passes(rng, rs)
    ops = next(passes)
    warm_up(workload, ops, api)
    speed = calibration.SpeedLog(
        tally.frozen.reference_s, workload.reference_nominal_s, workload.reference_on_own_cpu
    )
    latencies = array.array("d")  # ns per measured operation
    tags = []
    starts = array.array("d")
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            start = time.perf_counter()
            latencies.append(execute(op, api, tally))
            starts.append(start)
            tags.append(op.tag)
            speed.maybe_sample()
        if time.perf_counter() >= deadline:
            break
        ops = next(passes)
    speed.sample()
    measured, measured_trials = tally.attempted, tally.trials
    peak = peak_rss_mb()
    execute(wl.determinism_op(random.Random(f"{seed}:determinism"), rs), api, tally)
    setup_s, raw_setup_s = measure_setup(name, seed)
    scaled = [ns * speed.scale(t, t + ns / 1e9) for t, ns in zip(starts, latencies)]
    metrics = {
        "setup_s": setup_s,
        **latency_metrics(scaled, tags, workload.rank_by_tag),
        "ops_ok_frac": 1.0 - tally.not_ok / tally.attempted,
        "peak_rss_mb": peak,
    }
    raw = latency_metrics(latencies, tags, workload.rank_by_tag)
    notes = {
        "ops_measured": measured,
        "busy_s": f"{sum(latencies) / 1e9:.3f} s",
        "reference_ms_median": f"{1e3 * statistics.median(speed.seconds):.4g} ms ({len(speed.seconds)} samples)",
        "raw_setup_s": f"{raw_setup_s:.6g} s",
        "raw_ops_per_s": f"{raw['ops_per_s']:.6g} 1/s",
        "raw_op_ms_p50": f"{raw['op_ms_p50']:.6g} ms",
        "raw_op_ms_p90": f"{raw['op_ms_p90']:.6g} ms",
    }
    # The same figures under the names each workload's users know them by.
    if name == "chains-highdim":
        notes["trials_per_s"] = f"{metrics['ops_per_s'] * measured_trials / measured:.6g} trials/s"
    elif name == "sweep-lowdim":
        notes["verdicts_per_s"] = f"{metrics['ops_per_s']:.6g} ops/s"
        notes["verdict_ms_p50"] = f"{metrics['op_ms_p50']:.6g} ms"
        notes["verdict_ms_p90"] = f"{metrics['op_ms_p90']:.6g} ms"
    else:
        notes["predictions_per_s"] = f"{metrics['ops_per_s']:.6g} ops/s"
        notes["predict_us_p50"] = f"{1e3 * metrics['op_ms_p50']:.6g} us"
        notes["predict_us_p90"] = f"{1e3 * metrics['op_ms_p90']:.6g} us"
    return metrics, notes


def traced(name, seed, rs, tally):
    import randsteps.cli

    import layers
    import tracing

    workload = wl.WORKLOADS[name]
    tracer = tracing.Tracer()
    plain, api = wl.bind(None), wl.bind(tracer)
    rng = random.Random(seed)
    passes = workload.passes(rng, rs)
    ops = [op for _ in range(workload.traced_passes) for op in next(passes)]
    warm_up(workload, ops, plain)
    # Each op runs once untraced and once traced, in alternating order, so
    # drift in the machine's load falls on both sides alike.
    untraced_ns = traced_ns = 0
    for index, op in enumerate(ops):
        tracer.op_id = index
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            if side:
                with tracing.Patch(tracer, randsteps.cli, wl.CLI_CALLS):
                    traced_ns += execute(op, api, tally)
            else:
                untraced_ns += execute(op, plain, tally)
    workload_self = tracer.self_ns_by_layer()

    tracer.op_id = "probe"
    metrics = layers.sampling(tracer, rs)
    metrics.update(layers.chains(tracer, rs, metrics))
    spec = wl.chains_spec(rs, 0, wl.CHUNK, seed % 2**63)
    pair = (rs.prediction_for(spec.geometry, spec.schedule, spec.n_dim), rs.estimate(spec))
    probed, probe_trials = layers.montecarlo(tracer, rs, pair)
    metrics.update(probed)
    grid = wl.WORKLOADS["predict-grid"].passes(random.Random(seed), rs)
    probed, probe_predictions = layers.predictors(tracer, plain, [next(grid) for _ in range(3)])
    metrics.update(probed)
    metrics.update(layers.geometry(tracer, rs))
    probed, cli_trials = layers.cli(tracer, api, randsteps.cli, str(SRC), seed % 2**63)
    metrics.update(probed)
    metrics.update(layers.selftest(tracer, rs))
    tracer.op_id = "determinism"
    execute(wl.determinism_op(random.Random(f"{seed}:determinism"), rs), api, tally)

    for layer, ns in tracer.self_ns_by_layer().items():
        metrics[f"trace.self_s.{layer}"] = ns / 1e9
    metrics["trace.overhead_pct"] = 100.0 * (traced_ns / untraced_ns - 1.0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["montecarlo.trials_attempted"] = tally.trials + probe_trials + cli_trials
    metrics["predictors.predictions_attempted"] = tally.predictions + probe_predictions
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    notes = {
        "workload_ops_per_segment": len(ops),
        "workload_self_ms": {k: v / 1e6 for k, v in workload_self.items()},
    }
    return metrics, notes


def report(args, prov, metrics, notes, tally):
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>16.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    known = tally.not_ok - tally.failed
    print(
        f"  ops_failed_frac {tally.not_ok / tally.attempted:.6g} ratio ({tally.not_ok} of {tally.attempted}"
        f" operations: {known} known baseline defects, {tally.failed} other failures)"
    )
    for label, bucket in (("known baseline defect", tally.known), ("UNEXPECTED failure", tally.unexpected)):
        for key, count in sorted(bucket.items()):
            print(f"  {label} x{count}: {key}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "randsteps" / "__init__.py").is_file():
        print(f"perfbench: no randsteps package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.baseline)
        return 0
    load = os.getloadavg()[0]
    with calibration.Frozen(args.workload) as frozen:
        import randsteps as rs

        prov = provenance(load)
        tally = Tally(frozen)
        if args.trace:
            metrics, notes = traced(args.workload, args.seed, rs, tally)
        else:
            metrics, notes = end_to_end(args.workload, args.seed, args.seconds, rs, tally)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    metrics = {k: (metrics[k], units[k]) for k in units}
    report(args, prov, metrics, notes, tally)
    record = {
        "args": vars(args),
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "attempted": tally.attempted,
        "known_defects": dict(tally.known),
        "failed_unexpected": dict(tally.unexpected),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": not tally.unexpected,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
