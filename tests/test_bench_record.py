"""The paired summary that scripts/bench_record.py prints after recording."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_METRICS = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_ms_p50", "better": "lower"},
]


def _record(label, workload, seed, ops, p50, trace=0):
    metrics = {"ops_per_s": {"value": ops}, "op_ms_p50": {"value": p50}}
    return {
        "label": label, "workload": workload, "seed": seed, "trace": trace,
        "result": {"metrics": metrics},
    }


def test_pairs_by_workload_trace_and_seed():
    records = [
        _record("parent", "sweep", 1, 100.0, 2.0),
        _record("change", "sweep", 1, 105.0, 1.0),
        _record("change", "sweep", 2, 110.0, 3.0),
        _record("parent", "sweep", 2, 110.0, 2.0),
        _record("parent", "sweep", 3, 120.0, 4.0),
        _record("change", "sweep", 3, 90.0, 4.0),
        # Unpaired: no change run at seed 4, a traced change run, another label.
        _record("parent", "sweep", 4, 1.0, 1.0),
        _record("change", "sweep", 4, 9.0, 9.0, trace=1),
        _record("other", "sweep", 1, 9.0, 9.0),
        _record("parent", "grid", 7, 50.0, 1.0),
        _record("change", "grid", 7, 40.0, 0.5),
    ]
    assert bench_record.paired_summary(records, "parent", "change", _METRICS) == [
        # Ties count for neither label; quartiles are statistics.quantiles'.
        "sweep ops_per_s: 3 pairs, change ahead in 1, median ratio 1.0000, parent IQR 18.18%",
        "sweep op_ms_p50: 3 pairs, change ahead in 1, median ratio 1.0000, parent IQR 100.00%",
        "grid ops_per_s: 1 pairs, change ahead in 0, median ratio 0.8000, parent IQR 0.00%",
        "grid op_ms_p50: 1 pairs, change ahead in 1, median ratio 0.5000, parent IQR 0.00%",
    ]


def test_default_metrics_are_the_benchmarks_end_to_end():
    records = [_record("a", "w", 1, 1.0, 1.0), _record("b", "w", 1, 1.0, 1.0)]
    for rec in records:
        rec["result"]["metrics"] = {
            m["name"]: {"value": 1.0} for m in bench_record.BENCHMARK["end_to_end"]
        }
    lines = bench_record.paired_summary(records, "a", "b")
    assert [line.split(":")[0] for line in lines] == [
        f"w {m['name']}" for m in bench_record.BENCHMARK["end_to_end"]
    ]
