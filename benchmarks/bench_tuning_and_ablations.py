"""Auto-tuning validation (Sec. 3.3) and design-choice ablations.

Three studies beyond the numbered figures:

1. **Spatial-level auto-tuning** — the paper claims the elbow of the
   pair/self-similarity-ratio curve "detects the most accurate spatial
   detail level that does not add overhead".  We sweep levels, link at
   each, and check the tuned level reaches (near-)peak F1 at a fraction of
   the finest level's comparisons.
2. **Stop-threshold methods** — GMM (paper default) vs Otsu vs 2-means vs
   no threshold; the paper reports the first three behave alike, and the
   ablation quantifies what "none" (prior work's implicit choice) costs in
   precision at partial overlap.
3. **POIS comparison** — the related-work baseline (ref [32]) against SLIM
   on the default pair, illustrating the cost of a full matching without a
   stop threshold.
"""

from repro.baselines import PoisLinker
from repro.core.similarity import SimilarityConfig
from repro.pipeline import LinkageConfig
from repro.core.tuning import auto_spatial_level
from repro.data import sample_linkage_pair
from repro.eval import format_table, precision_recall_f1, run_pipeline, write_report

LEVELS = (4, 6, 8, 10, 12, 14, 16, 18, 20)


def test_auto_tuning_finds_efficient_level(benchmark, cab_world, results_dir):
    world = cab_world.subset(cab_world.entities[:30])
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=7)

    def study():
        choice = auto_spatial_level(
            world, levels=LEVELS, sample_size=8, pairs_per_entity=6, rng=7
        )
        sweep = []
        for level in LEVELS:
            measures = run_pipeline(
                pair, LinkageConfig(similarity=SimilarityConfig(spatial_level=level))
            )
            sweep.append(
                {
                    "level": level,
                    "f1": measures.f1,
                    "bin_comparisons": measures.bin_comparisons,
                    "ratio_curve": choice.curve()[level],
                    "chosen": "<--" if level == choice.level else "",
                }
            )
        return choice, sweep

    choice, sweep = benchmark.pedantic(study, rounds=1, iterations=1)
    write_report(
        format_table(
            sweep, precision=4, title="Auto-tuning: ratio curve, F1 and cost per level"
        ),
        results_dir / "tuning_spatial_level.txt",
    )

    by_level = {row["level"]: row for row in sweep}
    best_f1 = max(row["f1"] for row in sweep)
    tuned = by_level[choice.level]
    finest = by_level[LEVELS[-1]]
    # Near-peak accuracy...
    assert tuned["f1"] >= best_f1 - 0.1
    # ...at a fraction of the finest level's comparison cost.
    assert tuned["bin_comparisons"] < 0.8 * finest["bin_comparisons"]


def test_threshold_method_ablation(benchmark, cab_world, results_dir):
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )

    def study():
        rows = []
        for method in ("gmm", "otsu", "two_means", "none"):
            measures = run_pipeline(pair, LinkageConfig(threshold=method))
            rows.append(
                {
                    "method": method,
                    "precision": measures.quality.precision,
                    "recall": measures.quality.recall,
                    "f1": measures.f1,
                    "links": len(measures.result.links),
                    "threshold": measures.result.threshold.threshold,
                }
            )
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    write_report(
        format_table(rows, precision=3, title="Stop-threshold method ablation"),
        results_dir / "threshold_method_ablation.txt",
    )

    by_method = {row["method"]: row for row in rows}
    # The paper: GMM / Otsu / 2-means behave alike.
    for method in ("otsu", "two_means"):
        assert abs(by_method[method]["f1"] - by_method["gmm"]["f1"]) <= 0.25
    # No threshold = full matching: every non-overlapping entity becomes a
    # false link, so precision must drop at intersection ratio 0.5.
    assert by_method["none"]["precision"] <= by_method["gmm"]["precision"]
    assert by_method["none"]["links"] >= by_method["gmm"]["links"]


def test_pois_comparison(benchmark, cab_world, results_dir):
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )

    def study():
        slim = run_pipeline(pair, LinkageConfig())
        pois = PoisLinker().link(pair.left, pair.right)
        pois_quality = precision_recall_f1(pois.links, pair.ground_truth)
        return [
            {
                "method": "SLIM",
                "precision": slim.quality.precision,
                "recall": slim.quality.recall,
                "f1": slim.f1,
            },
            {
                "method": "POIS",
                "precision": pois_quality.precision,
                "recall": pois_quality.recall,
                "f1": pois_quality.f1,
            },
        ]

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    write_report(
        format_table(rows, precision=3, title="SLIM vs POIS (ref [32]) on the default Cab pair"),
        results_dir / "pois_comparison.txt",
    )
    slim_row, pois_row = rows
    assert slim_row["precision"] >= pois_row["precision"]
    assert slim_row["f1"] >= pois_row["f1"] - 0.05
