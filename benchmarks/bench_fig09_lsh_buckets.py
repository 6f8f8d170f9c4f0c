"""Figure 9: LSH speed-up as a function of the bucket-table size, for
several LSH similarity thresholds — Cab (9a) and SM (9b).

Paper shape (Sec. 5.3.2):
* F1 is unaffected by the bucket count (identical bands always collide);
  speed-up *grows* with buckets because accidental hash collisions vanish;
* higher similarity thresholds prune more pairs (larger speed-up);
* the SM world reaches far larger factors than Cab (more entities).
"""

from repro.pipeline import LinkageConfig
from repro.data import sample_linkage_pair
from repro.eval import format_table, relative_f1, run_pipeline, speedup, write_report
from repro.lsh import LshConfig

BUCKETS = (2**8, 2**10, 2**12, 2**14, 2**18)
THRESHOLDS = (0.4, 0.6, 0.8)
SIG_LEVEL = 14
STEP = 16


def _sweep(pair, brute):
    rows = []
    for threshold in THRESHOLDS:
        for buckets in BUCKETS:
            config = LinkageConfig(
                lsh=LshConfig(
                    threshold=threshold,
                    step_windows=STEP,
                    spatial_level=SIG_LEVEL,
                    num_buckets=buckets,
                )
            )
            measures = run_pipeline(pair, config)
            rows.append(
                {
                    "threshold": threshold,
                    "buckets": buckets,
                    "speedup": speedup(
                        brute.bin_comparisons, measures.bin_comparisons
                    ),
                    "relative_f1": relative_f1(measures.f1, brute.f1),
                    "candidates": measures.result.candidate_pairs,
                }
            )
    return rows


def _check_shape(rows):
    for threshold in THRESHOLDS:
        series = [r for r in rows if r["threshold"] == threshold]
        small = next(r for r in series if r["buckets"] == BUCKETS[0])
        large = next(r for r in series if r["buckets"] == BUCKETS[-1])
        # More buckets -> fewer accidental candidates -> >= speed-up.
        assert large["candidates"] <= small["candidates"]
        assert large["speedup"] >= small["speedup"] * 0.99


def test_fig09a_cab(benchmark, cab_world, results_dir):
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )
    brute = run_pipeline(pair, LinkageConfig())
    rows = benchmark.pedantic(lambda: _sweep(pair, brute), rounds=1, iterations=1)
    write_report(
        format_table(rows, precision=3, title="Figure 9a: Cab - speed-up vs bucket count"),
        results_dir / "fig09a_cab.txt",
    )
    _check_shape(rows)


def test_fig09b_sm(benchmark, sm_world, results_dir):
    pair = sample_linkage_pair(
        sm_world, 0.5, 0.5, rng=11, timestamp_jitter_seconds=240.0
    )
    brute = run_pipeline(pair, LinkageConfig())
    rows = benchmark.pedantic(lambda: _sweep(pair, brute), rounds=1, iterations=1)
    write_report(
        format_table(rows, precision=3, title="Figure 9b: SM - speed-up vs bucket count"),
        results_dir / "fig09b_sm.txt",
    )
    _check_shape(rows)
    # SM (many entities) reaches larger factors than the small Cab world.
    assert max(r["speedup"] for r in rows) > 20.0
