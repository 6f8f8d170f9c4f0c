"""``tools/ab_bench.py``: its statistics on fixed numbers, and the table it
prints from stubbed runs (no ``run.py`` process is started here)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", _TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

PARENT = [0.260, 0.258, 0.256, 0.259, 0.257, 0.262, 0.255, 0.261, 0.258, 0.260]
FASTER = [0.218, 0.217, 0.219, 0.216, 0.218, 0.220, 0.217, 0.218, 0.219, 0.217]


class TestSummarize:
    def test_quartiles_of_one_to_ten(self):
        summary = ab_bench.summarize([float(v) for v in range(10, 0, -1)])
        assert (summary.q1, summary.median, summary.q3) == (3.25, 5.5, 7.75)
        assert summary.spread == 4.5

    def test_matches_numpy_percentiles(self):
        q1, median, q3 = np.percentile(PARENT, [25, 50, 75])
        summary = ab_bench.summarize(PARENT)
        assert summary.median == pytest.approx(median, abs=1e-15)
        assert summary.q1 == pytest.approx(q1, abs=1e-15)
        assert summary.q3 == pytest.approx(q3, abs=1e-15)

    def test_a_single_run_is_its_own_quartiles(self):
        assert ab_bench.summarize([0.5]) == ab_bench.Summary(0.5, 0.5, 0.5)


class TestWins:
    def test_lower_is_better_counts_strict_improvements(self):
        assert ab_bench.wins([3.0, 2.0, 1.0], [2.0, 2.0, 2.0], True) == 1

    def test_higher_is_better(self):
        assert ab_bench.wins([3.0, 2.0, 1.0], [2.0, 2.0, 2.0], False) == 1
        assert ab_bench.wins([0.9, 0.9], [1.0, 1.0], False) == 2


class TestVerdict:
    def test_a_clear_gain_is_better(self):
        assert ab_bench.verdict(PARENT, FASTER, True, 0.25) == "better"

    def test_nine_of_ten_wins_is_enough_eight_is_not(self):
        nine = FASTER[:9] + [0.300]
        assert ab_bench.verdict(PARENT, nine, True, 0.25) == "better"
        eight = FASTER[:8] + [0.300, 0.300]
        assert ab_bench.verdict(PARENT, eight, True, 0.25) == "within bound"

    def test_a_gap_inside_the_parent_spread_is_not_a_gain(self):
        # Wins every pair, by less than the parent's q1-q3 distance.
        nudged = [value - 0.001 for value in PARENT]
        assert ab_bench.verdict(PARENT, nudged, True, 0.25) == "within bound"

    def test_worse_than_the_bound(self):
        slower = [value * 1.3 for value in PARENT]
        assert ab_bench.verdict(PARENT, slower, True, 0.25) == "worse beyond bound"
        assert ab_bench.verdict(PARENT, slower, True, 0.35) == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [0.1, 0.4, 0.1, 0.4, 0.1, 0.4, 0.1, 0.4, 0.1, 0.4]
        assert ab_bench.verdict(PARENT, noisy, True, 0.25) == "unresolved"

    def test_unless_every_change_run_beats_every_parent_run(self):
        noisy = [0.05, 0.20, 0.05, 0.20, 0.05, 0.20, 0.05, 0.20, 0.05, 0.20]
        assert ab_bench.verdict(PARENT, noisy, True, 0.25) == "better"
        worse = [0.30, 0.90, 0.30, 0.90, 0.30, 0.90, 0.30, 0.90, 0.30, 0.90]
        assert ab_bench.verdict(PARENT, worse, True, 0.25) == "unresolved"

    def test_higher_is_better_metrics(self):
        assert ab_bench.verdict([1.0] * 10, [1.0] * 10, False, 0.1) == (
            "within bound"
        )
        assert ab_bench.verdict([1.0] * 10, [0.8] * 10, False, 0.1) == (
            "worse beyond bound"
        )

    def test_a_zero_parent_median(self):
        assert ab_bench.verdict([0.0] * 10, [0.0] * 10, True, 0.1) == (
            "within bound"
        )
        assert ab_bench.verdict([0.0] * 10, [1.0] * 10, True, 0.1) == (
            "worse beyond bound"
        )

    def test_fewer_than_ten_pairs_claim_no_gain(self):
        # A clean 3/3 sweep with a gap far above the parent's spread.
        assert ab_bench.verdict(PARENT[:3], FASTER[:3], True, 0.25) == (
            "within bound (n<10)"
        )
        assert ab_bench.verdict(PARENT[:9], FASTER[:9], True, 0.25) == (
            "within bound (n<10)"
        )

    def test_fewer_than_ten_pairs_still_flag_a_loss(self):
        slower = [value * 1.3 for value in PARENT[:3]]
        assert ab_bench.verdict(PARENT[:3], slower, True, 0.25) == (
            "worse beyond bound"
        )


def test_run_once_leaves_the_run_length_to_the_benchmark(tmp_path, monkeypatch):
    calls = []

    def fake_run(command, cwd, capture_output, text):
        calls.append((command, cwd))
        return ab_bench.subprocess.CompletedProcess(
            command, 0, stdout='log line\n{"correct": true}\n', stderr=""
        )

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    result = ab_bench.run_once(tmp_path, "stream_trickle", 23, True)
    assert result == {"correct": True}
    [(command, cwd)] = calls
    assert cwd == tmp_path
    assert command[1:] == [
        str(ab_bench.RUNNER), "--workload", "stream_trickle",
        "--seed", "23", "--trace", "1",
    ]


def stub_runs(tmp_path, monkeypatch, traced):
    """Two checkouts whose runs ``ab_bench.main`` reads from fixed numbers
    (as with the real harness, a traced run reports per-layer metrics only
    and an untraced one end-to-end metrics only); returns the run order."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [
            {"name": "latency_p50_s", "better": "lower", "bound": 0.25},
            {"name": "f1", "better": "higher", "bound": 0.1},
        ],
        "per_layer": [{"name": "kernels.score_pairs_batch_s", "better": "lower"}],
    }))
    runs = {
        "parent": iter(zip(PARENT, [0.13] * 10)),
        "change": iter(zip(FASTER, [0.10] * 10)),
    }
    order = []

    def run_once(checkout, workload, seed, trace):
        assert (workload, seed, trace) == ("batch_dense_brute", 11, traced)
        order.append(checkout.name)
        latency, kernel = next(runs[checkout.name])
        if trace:
            metrics = {"kernels.score_pairs_batch_s": kernel}
        else:
            metrics = {"latency_p50_s": latency, "f1": 1.0}
        return {"correct": True, "attempted": 12, "failed": 0,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    return order


def table(out):
    return {line.split()[0]: line for line in out.splitlines() if " -> " in line}


def run_main(tmp_path, *extra):
    return ab_bench.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "batch_dense_brute", "--pairs", "10", *extra,
    ])


def test_main_alternates_and_tabulates(tmp_path, monkeypatch, capsys):
    order = stub_runs(tmp_path, monkeypatch, traced=False)
    assert run_main(tmp_path) == 0
    out = capsys.readouterr().out
    assert order[:4] == ["parent", "change", "change", "parent"]
    assert out.count("pair ") == 20
    rows = table(out)
    assert list(rows) == ["latency_p50_s", "f1"]
    assert rows["latency_p50_s"].endswith("wins 10/10  better")
    assert rows["f1"].endswith("wins 0/10  within bound")


def test_a_traced_comparison_tabulates_the_layers_only(
    tmp_path, monkeypatch, capsys
):
    stub_runs(tmp_path, monkeypatch, traced=True)
    assert run_main(tmp_path, "--trace", "--layer", "kernels.score_pairs_batch_s") == 0
    rows = table(capsys.readouterr().out)
    assert list(rows) == ["kernels.score_pairs_batch_s"]
    assert rows["kernels.score_pairs_batch_s"].endswith("wins 10/10  -")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--layer", "kernels.score_pairs_batch_s"], "--layer needs --trace"),
        (["--trace", "--layer", "kernels.score_pair_batch_s"], "no such per_layer"),
        (["--trace", "--layer", "latency_p50_s"], "no such per_layer"),
    ],
    ids=["layer-without-trace", "misspelt-layer", "end-to-end-as-layer"],
)
def test_a_layer_no_run_can_report_is_a_usage_error(
    tmp_path, monkeypatch, capsys, extra, message
):
    order = stub_runs(tmp_path, monkeypatch, traced="--trace" in extra)
    with pytest.raises(SystemExit) as stopped:
        run_main(tmp_path, *extra)
    assert stopped.value.code == 2
    assert message in capsys.readouterr().err
    assert order == []  # refused before the first run
