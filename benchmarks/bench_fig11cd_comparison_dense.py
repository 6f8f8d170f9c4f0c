"""Figure 11c/11d: SLIM (with LSH) vs ST-Link across record densities and
intersection ratios — F1, runtime, and pairwise record comparisons.

Paper shape (Sec. 5.5): SLIM outperforms ST-Link's F1 at (almost) every
density; ST-Link's accuracy *decreases* as records grow (alibi/ambiguity
pressure); and SLIM performs orders of magnitude fewer record comparisons
than the sliding-window join the original ST-Link executes (Fig. 11d).

Comparison-count honesty: our ST-Link implementation is itself blocked
behind an inverted index, so the table reports both its actual comparisons
and the sliding-window join cost of the original algorithm (the paper's
cost model) — see docs/ARCHITECTURE.md, "Paper figures".
"""

from bench_util import write_series

from repro.baselines import StLinkLinker
from repro.pipeline import LinkageConfig
from repro.data import sample_linkage_pair
from repro.eval import precision_recall_f1, run_pipeline
from repro.lsh import LshConfig

INCLUSIONS = (0.25, 0.5, 0.8)
RATIOS = (0.3, 0.7)


def _sweep(world):
    rows = []
    for ratio in RATIOS:
        for inclusion in INCLUSIONS:
            pair = sample_linkage_pair(world, ratio, inclusion, rng=7)
            slim = run_pipeline(
                pair,
                LinkageConfig(
                    lsh=LshConfig(threshold=0.3, step_windows=24, spatial_level=14)
                ),
            )
            stlink = StLinkLinker().link(pair.left, pair.right)
            stlink_quality = precision_recall_f1(stlink.links, pair.ground_truth)
            rows.append(
                {
                    "ratio": ratio,
                    "avg_records": round(
                        (pair.left.num_records / pair.left.num_entities
                         + pair.right.num_records / pair.right.num_entities) / 2, 1
                    ),
                    "slim_f1": slim.f1,
                    "stlink_f1": stlink_quality.f1,
                    "slim_comparisons": slim.bin_comparisons,
                    "stlink_comparisons": stlink.stats.bin_comparisons,
                    "stlink_window_join": stlink.extras["window_join_comparisons"],
                    "slim_runtime_s": slim.runtime_seconds,
                    "stlink_runtime_s": stlink.runtime_seconds,
                }
            )
    return rows


def test_fig11cd_dense_comparison(benchmark, cab_world, results_dir):
    rows = benchmark.pedantic(lambda: _sweep(cab_world), rounds=1, iterations=1)

    write_series(
        rows,
        results_dir / "fig11cd_comparison_dense.txt",
        title="Figure 11c/11d: SLIM+LSH vs ST-Link across densities and ratios",
    )

    # 11c: SLIM wins or ties F1 everywhere at paper-comparable densities
    # (>= ~350 records/entity); at the sparsest scale-down points the LSH
    # filter can cost SLIM recall ST-Link does not pay (same section).
    dense_rows = [r for r in rows if r["avg_records"] >= 350]
    assert dense_rows
    losses_dense = sum(
        1 for r in dense_rows if r["slim_f1"] < r["stlink_f1"] - 0.05
    )
    assert losses_dense <= 1  # the paper also concedes one point
    # 11d: SLIM does far fewer comparisons than the original ST-Link's
    # sliding-window join, and the gap *widens* with record density (the
    # paper's three orders of magnitude materialise at its 2,100-18,900
    # records/entity and 24-day span; our scale-down shows the same growth
    # from a smaller base).
    for row in rows:
        assert row["stlink_window_join"] / max(1, row["slim_comparisons"]) > 2.0
    for ratio in RATIOS:
        series = [r for r in rows if r["ratio"] == ratio]
        gaps = [
            r["stlink_window_join"] / max(1, r["slim_comparisons"]) for r in series
        ]
        assert gaps[-1] > gaps[0]
