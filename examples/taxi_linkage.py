"""Taxi-fleet linkage at scale: brute force vs LSH vs baselines.

The Cab scenario of the paper's evaluation: dense traces, one city, strong
spatial skew.  This example runs the same linkage four ways —

1. SLIM, brute-force candidate set;
2. SLIM with the LSH filtering layer (Sec. 4);
3. the ST-Link baseline (ref [3]);
4. the GM baseline (ref [43]) on a record-count-reduced slice (GM works at
   record granularity and has no blocking, so it is deliberately slow);

— and prints accuracy, comparison counts and the LSH speed-up, mirroring
the quantities of Figs. 8 and 11.

Run:  python examples/taxi_linkage.py
"""

import time

from repro import LinkageConfig, LinkagePipeline, LshConfig
from repro.baselines import GmLinker, StLinkLinker
from repro.data import sample_linkage_pair
from repro.data.synth import default_cab_world
from repro.eval import format_table, precision_recall_f1, relative_f1, speedup


def main() -> None:
    world = default_cab_world(
        num_taxis=40, duration_days=1.5, sample_period_seconds=150, seed=7
    ).generate()
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=7)
    print("datasets:", pair.describe(), "\n")

    rows = []

    # --- SLIM, brute force -------------------------------------------------
    start = time.perf_counter()
    brute = LinkagePipeline(LinkageConfig()).run(pair.left, pair.right)
    brute_seconds = time.perf_counter() - start
    brute_quality = precision_recall_f1(brute.links, pair.ground_truth)
    rows.append(
        {
            "method": "SLIM (brute force)",
            "precision": brute_quality.precision,
            "recall": brute_quality.recall,
            "f1": brute_quality.f1,
            "comparisons": brute.stats.bin_comparisons,
            "runtime_s": brute_seconds,
        }
    )

    # --- SLIM + LSH ---------------------------------------------------------
    # At this demo scale (20x20 entity pairs) LSH yields a few-x speed-up at
    # full F1; the orders-of-magnitude factors of Figs. 8-9 need thousands
    # of entities (see benchmarks/bench_fig08/09).
    lsh_config = LshConfig(
        threshold=0.3, step_windows=24, spatial_level=14, num_buckets=4096
    )
    start = time.perf_counter()
    lsh = LinkagePipeline(LinkageConfig(lsh=lsh_config)).run(pair.left, pair.right)
    lsh_seconds = time.perf_counter() - start
    lsh_quality = precision_recall_f1(lsh.links, pair.ground_truth)
    rows.append(
        {
            "method": "SLIM + LSH",
            "precision": lsh_quality.precision,
            "recall": lsh_quality.recall,
            "f1": lsh_quality.f1,
            "comparisons": lsh.stats.bin_comparisons,
            "runtime_s": lsh_seconds,
        }
    )

    # --- ST-Link ------------------------------------------------------------
    stlink = StLinkLinker().link(pair.left, pair.right)
    stlink_quality = precision_recall_f1(stlink.links, pair.ground_truth)
    rows.append(
        {
            "method": "ST-Link",
            "precision": stlink_quality.precision,
            "recall": stlink_quality.recall,
            "f1": stlink_quality.f1,
            "comparisons": stlink.stats.bin_comparisons,
            "runtime_s": stlink.runtime_seconds,
        }
    )

    # --- GM (reduced slice: it scores every record pair) --------------------
    gm_world = default_cab_world(
        num_taxis=16, duration_days=0.5, sample_period_seconds=450, seed=7
    ).generate()
    gm_pair = sample_linkage_pair(gm_world, 0.5, 0.5, rng=7)
    gm = GmLinker().link(gm_pair.left, gm_pair.right)
    gm_quality = precision_recall_f1(gm.links, gm_pair.ground_truth)
    rows.append(
        {
            "method": "GM (reduced slice)",
            "precision": gm_quality.precision,
            "recall": gm_quality.recall,
            "f1": gm_quality.f1,
            "comparisons": gm.stats.bin_comparisons,
            "runtime_s": gm.runtime_seconds,
        }
    )

    print(format_table(rows, precision=3, title="Taxi linkage comparison"))

    print(
        f"\nLSH candidate pairs: {lsh.candidate_pairs} of "
        f"{brute.candidate_pairs} "
        f"-> speed-up {speedup(brute.stats.bin_comparisons, lsh.stats.bin_comparisons):.1f}x, "
        f"relative F1 {relative_f1(lsh_quality.f1, brute_quality.f1):.3f}"
    )
    print(f"ST-Link auto-detected k={stlink.extras['k']}, l={stlink.extras['l']}")


if __name__ == "__main__":
    main()
