"""The paired summary that scripts/bench_record.py prints after recording."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
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
        # A traced pair: per-layer metrics alone, so it pairs for no end-to-end one.
        {**_record("parent", "sweep", 5, 0.0, 0.0, trace=1), "result": {"metrics": {}}},
        {**_record("change", "sweep", 5, 0.0, 0.0, trace=1), "result": {"metrics": {}}},
        _record("parent", "grid", 7, 50.0, 1.0),
        _record("change", "grid", 7, 40.0, 0.5),
    ]
    assert bench_record.paired_summary(records, "parent", "change", _METRICS) == [
        # Ties count for neither label; quartiles are statistics.quantiles';
        # no 95 % interval exists for fewer than 6 pairs.  The p50 spread,
        # 100 %, passes the bound and the runs overlap: unresolved.
        "sweep ops_per_s: 3 pairs, change ahead in 1, median ratio 1.0000, parent IQR 18.18%, 95% HL interval of log ratio n/a, within bound",
        "sweep op_ms_p50: 3 pairs, change ahead in 1, median ratio 1.0000, parent IQR 100.00%, 95% HL interval of log ratio n/a, unresolved",
        "grid ops_per_s: 1 pairs, change ahead in 0, median ratio 0.8000, parent IQR 0.00%, 95% HL interval of log ratio n/a, within bound",
        "grid op_ms_p50: 1 pairs, change ahead in 1, median ratio 0.5000, parent IQR 0.00%, 95% HL interval of log ratio n/a, within bound",
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


def test_signed_rank_critical_values():
    # The two-sided 5 % table of the Wilcoxon signed-rank test.
    got = [bench_record._signed_rank_critical(n) for n in range(1, 16)]
    assert got == [None] * 5 + [0, 2, 3, 5, 8, 10, 13, 17, 21, 25]


def test_hodges_lehmann_interval_by_hand():
    # Eight pairs with ratios 2^k, so the log ratios are k ln 2 for
    # k = -3, -1, 0, 1, 2, 4, 5, 7.  At 8 pairs the critical value is 3
    # (P(T <= 3) = 5/256, P(T <= 4) = 7/256 > 0.025), so the interval runs
    # from the 4th smallest Walsh average, (-1 + -1)/2 = -1 after -3, -2 and
    # -1.5, to the 4th largest, (5 + 5)/2 = 5 after 7, 6 and 5.5, in units of
    # ln 2: [-0.6931, +3.4657].  The change is ahead in the 5 pairs with
    # k > 0, and the median ratio is (2^1 + 2^2)/2 = 3.
    ks = (-3, -1, 0, 1, 2, 4, 5, 7)
    records = []
    for seed, k in enumerate(ks):
        records += [
            _record("parent", "w", seed, 100.0, 1.0),
            _record("change", "w", seed, 100.0 * 2.0**k, 1.0),
        ]
    line = bench_record.paired_summary(records, "parent", "change", _METRICS[:1])[0]
    assert line == (
        "w ops_per_s: 8 pairs, change ahead in 5, median ratio 3.0000, parent IQR 0.00%, "
        "95% HL interval of log ratio [-0.6931, +3.4657], within bound"
    )


@pytest.mark.parametrize(
    "a, b, better, want",
    [
        # Narrow runs: the medians against the 25 % bound, in either direction.
        ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], "higher", "within bound"),
        ([100.0, 101.0, 99.0, 100.0], [70.0, 71.0, 69.0, 70.0], "higher", "worse beyond bound"),
        ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", "within bound"),
        ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", "worse beyond bound"),
        # The first label's spread (60 %) passes the bound and the runs overlap.
        ([60.0, 100.0, 140.0, 100.0], [70.0, 100.0, 90.0, 110.0], "higher", "unresolved"),
        ([60.0, 100.0, 140.0, 100.0], [10.0, 100.0, 20.0, 30.0], "higher", "unresolved"),
        # Wide (80 %), but every run of one label beats every run of the other.
        ([60.0, 100.0, 140.0], [200.0, 210.0, 220.0], "higher", "within bound"),
        ([60.0, 100.0, 140.0], [10.0, 20.0, 30.0], "higher", "worse beyond bound"),
        ([60.0, 100.0, 140.0], [145.0, 150.0, 155.0], "lower", "worse beyond bound"),
    ],
)
def test_verdict_against_the_bound(a, b, better, want):
    assert bench_record.verdict(a, b, {"better": better, "bound": 0.25}) == want
