"""Figure 10: ablation study — how SLIM's components earn their keep.

Five variants across (a) spatial level at 15-minute windows and (b) window
width at level 12:

* ``original``  — full SLIM (MNN + MFN alibi pass, IDF, normalisation);
* ``mnn``       — MFN alibi pass removed;
* ``all_pairs`` — Cartesian pairing instead of MNN;
* ``no_idf``    — IDF weighting removed;
* ``no_norm``   — BM25-style length normalisation removed.

Paper shape (Sec. 5.4):
* All variants agree at narrow windows (few bins per window);
* All_Pairs collapses at wide windows (over-counting);
* No-Normalisation falls behind as spatial detail grows;
* No-IDF falls behind at wide windows (uniqueness matters more);
* The MFN pass lowers the similarity of false-positive pairs even when F1
  barely moves (paper: FP mean 2227 -> 1501).
"""

import numpy as np

from repro.core.similarity import SimilarityConfig
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.data import sample_linkage_pair
from repro.eval import format_table, run_pipeline, write_report

VARIANTS = {
    "original": {},
    "mnn": {"use_mfn": False},
    "all_pairs": {"pairing": "all_pairs", "use_mfn": False},
    "no_idf": {"use_idf": False},
    "no_norm": {"use_normalization": False},
}

LEVELS = (8, 12, 16, 20, 24)
WIDTHS = (15, 60, 180, 360, 720)


def _run(pair, variant_kwargs, level, width):
    config = LinkageConfig(
        similarity=SimilarityConfig(
            spatial_level=level, window_width_minutes=width, **variant_kwargs
        )
    )
    return run_pipeline(pair, config)


def test_fig10a_spatial_level(benchmark, cab_world, results_dir):
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )

    def sweep():
        rows = []
        for level in LEVELS:
            row = {"level": level}
            for name, kwargs in VARIANTS.items():
                row[name] = _run(pair, kwargs, level, 15).f1
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        format_table(rows, precision=3, title="Figure 10a: ablation F1 vs spatial level (15-min windows)"),
        results_dir / "fig10a_ablation_level.txt",
    )

    # Narrow windows: pairing variants behave alike (paper: "all three
    # blocking techniques used have similar F1-Score values").
    for row in rows:
        assert abs(row["original"] - row["mnn"]) < 0.25
    # Normalisation matters at high spatial detail.
    finest = rows[-1]
    assert finest["original"] >= finest["no_norm"] - 1e-9


def test_fig10b_window_width(benchmark, cab_world, results_dir):
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )

    def sweep():
        rows = []
        for width in WIDTHS:
            row = {"window_min": width}
            for name, kwargs in VARIANTS.items():
                row[name] = _run(pair, kwargs, 12, width).f1
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        format_table(rows, precision=3, title="Figure 10b: ablation F1 vs window width (level 12)"),
        results_dir / "fig10b_ablation_width.txt",
    )

    # All_Pairs over-counts when wide windows hold many bins.
    widest = rows[-1]
    assert widest["all_pairs"] <= widest["original"] + 1e-9
    # IDF matters more at wide windows.
    assert widest["no_idf"] <= widest["original"] + 0.05


def test_fig10_mfn_lowers_false_positive_scores(benchmark, cab_world, results_dir):
    """The paper's MFN observation: with the optional MFN pass, the mean
    similarity of false-positive matched pairs drops (2227 -> 1501 in the
    paper's setting) even when F1 is unchanged.  Narrow windows (small
    runaway distance) make alibis detectable in the one-city world."""
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )

    def measure():
        means = {}
        for name, kwargs in (("with_mfn", {}), ("without_mfn", {"use_mfn": False})):
            config = LinkageConfig(
                similarity=SimilarityConfig(
                    spatial_level=12, window_width_minutes=5, **kwargs
                )
            )
            result = LinkagePipeline(config).run(pair.left, pair.right)
            false_weights = [
                edge.weight
                for edge in result.matched_edges
                if pair.ground_truth.get(edge.left) != edge.right
            ]
            means[name] = float(np.mean(false_weights)) if false_weights else 0.0
        return means

    means = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_report(
        "MFN ablation (5-min windows, level 12):\n"
        f"mean false-positive matched score with MFN:    {means['with_mfn']:.2f}\n"
        f"mean false-positive matched score without MFN: {means['without_mfn']:.2f}",
        results_dir / "fig10_mfn_fp_scores.txt",
    )
    assert means["with_mfn"] <= means["without_mfn"] + 1e-9
