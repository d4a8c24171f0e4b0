"""Per-layer probes for the traced run, one span around each batch.

Each probe times public randsteps functions at the shapes the workloads
use (the chains-highdim specs, the sweep's one-chunk runs, the grid's
spectrum sizes) and reports a median over batches.  Counts (draws per
trial, chunks per operation) are computed from the specs, not measured.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads as wl

# Standard normals drawn per trial: M*n sphere, M*n flat, M*(n-1)
# hyperbolic, 2n per non-scalar operator factor, n for a coordinate moment.
DRAW_SHAPES = {
    "sphere": (5, 200),
    "flat": (10, 500),
    "hyperbolic": (3, 299),
    "operator": (2, 400),
    "monomial": (10,),
}
DRAWS_PER_TRIAL = {
    "sphere": 5 * 200,
    "flat": 10 * 500,
    "hyperbolic": 3 * 299,
    "operator": 2 * 400,
    "operator_product": 2 * 2 * 400,
    "monomial": 10,
}
CHAIN_GEOMETRIES = ("sphere", "flat", "hyperbolic", "operator", "operator_product")
PREDICT_GEOMETRIES = (
    "sphere", "flat", "hyperbolic", "operator", "operator_product", "monomial", "marginal",
)
PNORM_SIZES = (10, 100, 1000, 10**4)
BATCHES = 5


def _batched(fn, per_batch, batches=BATCHES):
    """Median over batches of the seconds per call of fn(i)."""
    times = []
    i = 0
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(per_batch):
            fn(i)
            i += 1
        times.append((time.perf_counter() - start) / per_batch)
    return statistics.median(times)


def sampling(tracer, rs):
    out = {}
    with tracer.span("sampling.RandomStream"):
        out["sampling.stream_open_us"] = 1e6 * _batched(lambda i: rs.RandomStream(7, i).generator, 400)
    gen = rs.RandomStream(7, 0).generator
    with tracer.span("sampling.standard_normal"):
        for geometry, shape in DRAW_SHAPES.items():
            per_call = _batched(lambda i: gen.standard_normal(shape), 200)
            out[f"sampling.normal_ns_per_draw.{geometry}"] = 1e9 * per_call / math.prod(shape)
    for geometry, draws in DRAWS_PER_TRIAL.items():
        out[f"sampling.draws_per_trial.{geometry}"] = draws
    return out


def _chain_trial(rs, geometry):
    _, n, schedule, _ = wl.CHAINS_SPECS[CHAIN_GEOMETRIES.index(geometry)]
    e1 = np.zeros(n)
    e1[0] = 1.0
    if geometry == "sphere":
        u0 = rs.UnitVector(e1)
        return lambda i: rs.run_sphere_chain(u0, schedule, rs.RandomStream(7, i))
    if geometry == "flat":
        return lambda i: rs.run_flat_chain(schedule, n, rs.RandomStream(7, i))
    if geometry == "hyperbolic":
        u0 = rs.HyperboloidPoint(e1)
        return lambda i: rs.run_hyperbolic_chain(u0, schedule, rs.RandomStream(7, i))
    u0 = rs.UnitVector(e1)
    spectra = [rs.Spectrum(values) for values in schedule]
    return lambda i: rs.run_operator_product(spectra, u0, rs.RandomStream(7, i))


def chains(tracer, rs, sampled):
    """Per-trial time of each run_*_chain, and that time less stream open and draws."""
    out = {}
    for geometry in CHAIN_GEOMETRIES:
        with tracer.span(f"chains.{geometry}"):
            run = _chain_trial(rs, geometry)
            run(0)
            us = 1e6 * _batched(run, 100)
        draw_key = "operator" if geometry == "operator_product" else geometry
        draws_us = sampled[f"sampling.normal_ns_per_draw.{draw_key}"] * DRAWS_PER_TRIAL[geometry] / 1e3
        out[f"chains.run_us_per_trial.{geometry}"] = us
        out[f"chains.self_us_per_trial.{geometry}"] = us - sampled["sampling.stream_open_us"] - draws_us
    return out


def montecarlo(tracer, rs, pred_report):
    """estimate() per trial at workers=1, the engine's own cost, and fan-out."""
    out = {}
    trials = 0
    for index, geometry in enumerate(CHAIN_GEOMETRIES):
        spec = wl.chains_spec(rs, index, wl.CHUNK, 11)
        times = []
        for _ in range(3):
            with tracer.span("montecarlo.estimate") as span:
                rs.estimate(spec, workers=1)
            times.append(span.ns)
            trials += spec.trials
        out[f"montecarlo.estimate_us_per_trial.{geometry}"] = statistics.median(times) / 1e3 / spec.trials
    empty = rs.ExperimentSpec("sphere", 200, (), 4 * wl.CHUNK, 11)
    times = []
    for _ in range(BATCHES):
        with tracer.span("montecarlo.estimate") as span:
            rs.estimate(empty, workers=1)
        times.append(span.ns)
        trials += empty.trials
    out["montecarlo.empty_us_per_trial"] = statistics.median(times) / 1e3 / empty.trials
    fan = wl.chains_spec(rs, 0, 8 * wl.CHUNK, 11)
    ns = {}
    for workers in (1, wl.WORKERS):
        with tracer.span("montecarlo.estimate") as span:
            rs.estimate(fan, workers=workers)
        ns[workers] = span.ns
        trials += fan.trials
    out["montecarlo.fanout_speedup"] = ns[1] / ns[wl.WORKERS]
    out["montecarlo.chunks_per_op.chains-highdim"] = wl.CHAINS_TRIALS // wl.CHUNK
    out["montecarlo.chunks_per_op.sweep-lowdim"] = wl.SWEEP_TRIALS // wl.CHUNK
    pred, est = pred_report
    with tracer.span("montecarlo.compare"):
        out["montecarlo.compare_us"] = 1e6 * _batched(lambda i: rs.compare(pred, est), 400)
    return out, trials


def predictors(tracer, api, grid_passes):
    """Median prediction_for time per geometry over the grid; wrong answers in one pass.

    api is untraced: one span covers the loop, so span upkeep stays out of
    the per-call times.
    """
    wrong = 0
    for op in grid_passes[0]:
        try:
            result = op.run(api)
        except Exception as exc:  # a raising predictor is a wrong prediction
            result = exc
        wrong += bool(op.check(result))
    times = {g: [] for g in PREDICT_GEOMETRIES}
    with tracer.span("predictors.prediction_for"):
        for ops in grid_passes:
            for op in ops:
                start = time.perf_counter_ns()
                try:
                    op.run(api)
                except Exception:  # already counted as wrong; only the time matters
                    pass
                times[op.tag.split(":", 1)[0]].append(time.perf_counter_ns() - start)
    out = {f"predictors.prediction_us.{g}": statistics.median(t) / 1e3 for g, t in times.items()}
    out["predictors.wrong_count"] = wrong
    return out, len(grid_passes[0]) + sum(len(ops) for ops in grid_passes)


def geometry(tracer, rs):
    out = {}
    gen = np.random.default_rng(7)
    with tracer.span("geometry.pnorm_pi"):
        for n in PNORM_SIZES:
            x = gen.uniform(0.05, 1.0, n)
            out[f"geometry.pnorm_pi_us.n{n}"] = 1e6 * _batched(lambda i: rs.pnorm_pi(x, 2), 200)
    return out


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import randsteps.cli; print(time.perf_counter() - t)"
)


def cli(tracer, api, cli_module, src, seed):
    """Fresh-interpreter import time and cli.main's own time per compare."""
    imports = []
    for _ in range(3):
        with tracer.span("cli.import"):
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, src],
                capture_output=True, text=True, check=True, timeout=120,
            )
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    argv = [
        "compare", "--geometry", "sphere", "--n-dim", "10", "--angles", "0.5,0.5,0.5",
        "--trials", str(wl.SWEEP_TRIALS), "--seed", str(seed), "--workers", str(wl.WORKERS),
        "--output", "csv",
    ]
    own = []
    with tracing.Patch(tracer, cli_module, wl.CLI_CALLS):
        for _ in range(20):
            index = len(tracer.spans)
            wl.cli_run(argv, api)
            name, start, end, _, _ = tracer.spans[index]
            own.append(end - start - tracer.children_ns(index))
    return {
        "cli.import_s": statistics.median(imports),
        "cli.compare_overhead_ms": statistics.median(own) / 1e6,
    }, 20 * wl.SWEEP_TRIALS


def selftest(tracer, rs):
    with tracer.span("selftest.run_battery") as span:
        rows = rs.run_battery(workers=wl.WORKERS)
    return {
        "selftest.run_battery_s": span.ns / 1e9,
        "selftest.criteria_passed": sum(1 for r in rows if r.passed),
    }
