"""Machine speed, and the baseline's answers, from a frozen copy of randsteps.

On a shared virtual machine the host's load can make the same code run
twice as fast in one half hour as in the next, far more than the changes
the benchmark must resolve.  A fixed numpy and scipy kernel tracked that
drift only in part: two-process and import-heavy work slowed far more than
it did.  So the benchmark keeps baseline/randsteps_baseline, a frozen copy
of src/randsteps as it was when the benchmark was defined.  Between measured
operations, at least every SAMPLE_EVERY_S seconds, it times one small
reference operation of the running workload on that copy.  The copy runs
the instructions the measured program ran at the baseline, so it slows down
with the host as the program does; a change to src/randsteps does not reach
it, so the change's effect survives the scaling.

The copy runs in a helper process (Frozen), never in the measured one: its
modules stay out of the measured process's memory, and a slowdown of that
process alone, such as garbage-collector pressure from a new cache, is not
scaled away.  Where the workload runs in one process, the helper times the
reference on the CPU the measured process last ran on: the two CPUs of a
shared machine can differ in speed by half, and a reference timed on the
other one does not follow the program.  The helper also says which failure
kinds the baseline shows at a prediction_for input
(workloads.Op.baseline_point).

Each wall time is scaled by the workload's nominal reference time over the
reference time measured around it: a scaled time is the time on a machine
where the reference operation takes its nominal time.  Raw times are
reported beside the scaled ones.

    python3 calibration.py WORKLOAD

serves a helper on standard input and output, one JSON request and one JSON
reply per line: ["time", cpu] gives the reference operation's seconds, run
on that CPU unless cpu is null; ["kinds", point] the baseline's failure
kinds at point.
"""

import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline"
SAMPLE_EVERY_S = 0.25


def frozen():
    """The frozen randsteps package, with its cli module loaded."""
    if str(BASELINE) not in sys.path:
        sys.path.insert(0, str(BASELINE))
    import randsteps_baseline
    import randsteps_baseline.cli  # noqa: F401

    return randsteps_baseline


class Frozen:
    """The helper process running the frozen copy; use it in a with block."""

    def __init__(self, workload):
        # The helper starts while the caller goes on; the first request
        # waits for it.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibration.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = False

    def _ask(self, request):
        if not self.ready:
            if self.proc.stdout.readline() != "ready\n":
                raise RuntimeError("perfbench: the frozen-copy helper did not start")
            self.ready = True
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def reference_s(self, cpu=None):
        """Seconds the workload's reference operation takes, timed in the helper."""
        return self._ask(["time", cpu])

    def baseline_kinds(self, point):
        return frozenset(self._ask(["kinds", point]))

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def current_cpu():
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    return int(stat[stat.rindex(")") + 2 :].split()[36])


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def serve(workload):
    import workloads as wl

    fb = frozen()
    reference = wl.WORKLOADS[workload].reference(fb)
    reference()
    api = SimpleNamespace(prediction_for=fb.prediction_for)
    every_cpu = os.sched_getaffinity(0)
    print("ready", flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request[0] == "time":
            if request[1] is not None:
                os.sched_setaffinity(0, {request[1]})
            start = time.perf_counter()
            reference()
            reply = time.perf_counter() - start
            os.sched_setaffinity(0, every_cpu)
        else:
            op = wl.predict_op(fb, *_tuples(request[1]))
            try:
                result = op.run(api)
            except Exception as exc:  # a raising baseline is a failure of its kind
                result = exc
            reply = sorted(op.check(result))
        print(json.dumps(reply), flush=True)


class SpeedLog:
    """Reference timings over a run, and the scale they give each interval."""

    def __init__(self, reference_s, nominal_s, on_own_cpu):
        self.reference_s = reference_s
        self.nominal_s = nominal_s
        self.on_own_cpu = on_own_cpu
        self.at = []
        self.seconds = []
        self.sample()

    def sample(self):
        self.seconds.append(self.reference_s(current_cpu() if self.on_own_cpu else None))
        self.at.append(time.perf_counter())

    def maybe_sample(self):
        if time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """Nominal over the median reference time from the sample just before
        start to the one just after end: multiplies a wall time in that span."""
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return self.nominal_s / statistics.median(self.seconds[before : after + 1])


if __name__ == "__main__":
    serve(sys.argv[1])
