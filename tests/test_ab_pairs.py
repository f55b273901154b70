"""tools/ab_pairs.py's statistics, on fabricated result lines; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [{"name": "rate", "better": "higher", "bound": 0.25},
           {"name": "wall", "better": "lower", "bound": 0.25}]


def _runs(parent, change, workload="w", other="change", failed=(0, 0)):
    """Records as tools/ab_pairs.py keeps them: one per side and pair, each with the result
    line perfbench/run.py prints."""
    runs = []
    for i, values in enumerate(zip(parent, change)):
        for side, (rate, wall), fails in zip(("parent", other), values, failed):
            runs.append({"pair": i, "side": side, "workload": workload, "result": {
                "correct": True, "attempted": 10, "failed": fails,
                "metrics": {"rate": {"value": rate, "unit": "1/s"},
                            "wall": {"value": wall, "unit": "s"}}}})
    return runs


def test_a_change_that_wins_nine_of_ten_pairs_beyond_the_spread_is_a_gain():
    parent = [(100.0 + i, 10.0) for i in range(10)]          # quartiles 102.25, 106.75
    change = [(130.0 + i, 10.0) for i in range(9)] + [(90.0, 10.0)]
    row = ab_pairs.summarize(_runs(parent, change), METRICS)["w"]
    rate = row["metrics"]["rate"]
    assert rate["parent_median"] == 104.5 and rate["change_median"] == 133.5
    assert rate["parent_quartiles"] == [102.25, 106.75]
    assert rate["change_better_pairs"] == 9 and rate["verdict"] == "gain"
    assert rate["per_pair_ratios"][0] == 1.3 and rate["per_pair_ratios"][-1] == 0.8257
    assert rate["median_worse_by"] == pytest.approx(-29 / 104.5, abs=1e-4)
    # equal values are ties, which count for neither side
    assert row["metrics"]["wall"]["change_better_pairs"] == 0
    assert row["metrics"]["wall"]["verdict"] == "within bound"
    assert row["pairs"] == 10 and row["all_correct"]


def test_eight_wins_of_ten_or_a_gap_inside_the_spread_is_no_gain():
    parent = [(100.0 + i, 10.0) for i in range(10)]
    eight = [(130.0 + i, 10.0) for i in range(8)] + [(90.0, 10.0)] * 2
    assert ab_pairs.summarize(_runs(parent, eight), METRICS)["w"]["metrics"]["rate"][
        "verdict"] == "within bound"
    inside = [(p + 4.0, w) for p, w in parent]               # wins all, gap 4 < spread 4.5
    rate = ab_pairs.summarize(_runs(parent, inside), METRICS)["w"]["metrics"]["rate"]
    assert rate["change_better_pairs"] == 10 and rate["verdict"] == "within bound"


def test_a_lower_is_better_metric_worse_than_its_bound():
    parent = [(100.0, 10.0 + 0.1 * i) for i in range(10)]
    change = [(100.0, 13.0 + 0.1 * i) for i in range(10)]
    wall = ab_pairs.summarize(_runs(parent, change), METRICS)["w"]["metrics"]["wall"]
    assert wall["median_worse_by"] == pytest.approx(3.0 / 10.45, abs=1e-4)
    assert wall["verdict"] == "worse than bound"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [(v, 10.0) for v in (50.0, 150.0) * 5]          # quartile spread 100, bound 25
    change = [(v, 10.0) for v in (60.0, 140.0) * 5]
    rate = ab_pairs.summarize(_runs(parent, change), METRICS)["w"]["metrics"]["rate"]
    assert rate["verdict"] == "unresolved"
    above = [(151.0, 10.0)] * 10                             # every run better, gap 51 < 100
    rate = ab_pairs.summarize(_runs(parent, above), METRICS)["w"]["metrics"]["rate"]
    assert rate["verdict"] == "within bound"
    beyond = [(210.0, 10.0)] * 10                            # gap 110 > 100
    rate = ab_pairs.summarize(_runs(parent, beyond), METRICS)["w"]["metrics"]["rate"]
    assert rate["verdict"] == "gain"


def test_failures_and_workloads_are_counted_apart():
    runs = (_runs([(1.0, 1.0)] * 3, [(1.0, 1.0)] * 3, "a", failed=(0, 2))
            + _runs([(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2, "b"))
    runs[0]["result"]["correct"] = False
    summary = ab_pairs.summarize(runs, METRICS)
    assert summary["a"]["failed"] == {"parent": "0 of 30", "change": "6 of 30"}
    assert not summary["a"]["all_correct"] and summary["b"]["all_correct"]
    assert (summary["a"]["pairs"], summary["b"]["pairs"]) == (3, 2)
    # an A/A pair names its second side
    copy = ab_pairs.summarize(_runs([(1.0, 1.0)], [(1.1, 1.0)], other="copy"), METRICS, "copy")
    assert copy["w"]["metrics"]["rate"]["per_pair_ratios"] == [1.1]
    assert copy["w"]["metrics"]["rate"]["verdict"] == "too few pairs"


def test_seed_ranges():
    assert ab_pairs.seed_range("2300-2302") == [2300, 2301, 2302]
    assert ab_pairs.seed_range("7") == [7]


def test_runs_without_a_result_leave_their_pairs_out():
    parent = [(100.0 + i, 10.0) for i in range(12)]
    change = [(130.0 + i, 10.0) for i in range(12)]
    runs = _runs(parent, change) + _runs(parent[:3], change[:3], "short")
    runs[1]["result"] = None                                # pair 0 killed: no line
    runs[4]["result"] = {"correct": False}                  # pair 2, a line without metrics
    runs[-1]["result"] = ["not", "a", "record"]             # a malformed line
    summary = ab_pairs.summarize(runs, METRICS)
    row = summary["w"]
    assert row["pairs"] == 10 and row["without_result"] == {"parent": 1, "change": 1}
    assert not row["all_correct"]
    rate = row["metrics"]["rate"]
    assert rate["per_pair_ratios"][:2] == [1.297, 1.2913]    # pairs 1 and 3: 131/101, 133/103
    assert len(rate["per_pair_ratios"]) == 10
    assert rate["change_better_pairs"] == 10 and rate["verdict"] == "gain"
    short = summary["short"]
    assert short["pairs"] == 2 and short["without_result"] == {"parent": 0, "change": 1}
    assert short["metrics"]["rate"]["verdict"] == "too few pairs"
    lone = ab_pairs.summarize(_runs(parent[:1], change[:1])[:1], METRICS)["w"]
    assert lone["pairs"] == 0 and lone["metrics"] == {}
    ab_pairs.print_summary(summary, "fabricated")
