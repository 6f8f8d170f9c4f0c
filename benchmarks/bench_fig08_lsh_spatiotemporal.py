"""Figure 8: LSH quality and speed-up vs (signature spatial level x
temporal step size) — Cab (8a, 8b) and SM (8c, 8d).

The LSH knobs here are *signature* parameters, independent of the
similarity configuration (which stays at the defaults).  Paper shape
(Sec. 5.3.1):
* at coarse signature levels every entity shares the same dominating cells,
  so nothing is pruned: relative F1 ~ 1 and speed-up ~ 1 (especially Cab,
  which is "spatially too dense");
* finer levels prune aggressively: orders-of-magnitude fewer comparisons at
  a modest relative-F1 cost;
* the SM world (more entities, lower skew) reaches much larger speed-ups
  than Cab at the same settings.
"""

from repro.pipeline import LinkageConfig
from repro.data import sample_linkage_pair
from repro.eval import format_table, relative_f1, run_pipeline, speedup, write_report
from repro.lsh import LshConfig

LEVELS = (8, 12, 14, 16)
STEPS = (8, 16, 48, 96)
THRESHOLD = 0.6
BUCKETS = 4096


def _sweep(pair, brute):
    rows = []
    for level in LEVELS:
        for step in STEPS:
            config = LinkageConfig(
                lsh=LshConfig(
                    threshold=THRESHOLD,
                    step_windows=step,
                    spatial_level=level,
                    num_buckets=BUCKETS,
                )
            )
            measures = run_pipeline(pair, config)
            rows.append(
                {
                    "sig_level": level,
                    "step_windows": step,
                    "relative_f1": relative_f1(measures.f1, brute.f1),
                    "speedup": speedup(
                        brute.bin_comparisons, measures.bin_comparisons
                    ),
                    "candidates": measures.result.candidate_pairs,
                    "f1": measures.f1,
                }
            )
    return rows


def _report(rows, brute, title, path):
    lines = [
        f"brute force: F1={brute.f1:.3f}, "
        f"comparisons={brute.bin_comparisons}, "
        f"candidates={brute.result.candidate_pairs}",
        "",
        format_table(rows, precision=3, title=title),
    ]
    write_report("\n".join(lines), path)


def test_fig08ab_cab(benchmark, cab_world, results_dir):
    pair = sample_linkage_pair(
        cab_world.subset(cab_world.entities[:30]), 0.5, 0.5, rng=7
    )
    brute = run_pipeline(pair, LinkageConfig())

    rows = benchmark.pedantic(lambda: _sweep(pair, brute), rounds=1, iterations=1)
    _report(
        rows,
        brute,
        "Figure 8a/8b: Cab - LSH relative F1 and speed-up",
        results_dir / "fig08ab_cab.txt",
    )

    by_point = {(r["sig_level"], r["step_windows"]): r for r in rows}
    # Coarse signatures on the dense city prune little (paper: "the Cab
    # dataset is spatially too dense ... no speed-up for these points").
    assert by_point[(8, 16)]["speedup"] < by_point[(16, 16)]["speedup"]
    assert by_point[(8, 16)]["relative_f1"] > 0.99
    # Somewhere on the grid, LSH prunes substantially while preserving most
    # of the F1 (the paper's level-16/step-48 sweet spot; at our 1.5-day
    # scale-down the equivalent point sits at smaller steps because the
    # signature has ~10x fewer slots — docs/ARCHITECTURE.md, "Paper figures").
    good = [r for r in rows if r["relative_f1"] >= 0.85 and r["speedup"] >= 4.0]
    assert good, "expected a high-F1 / high-speed-up grid point"


def test_fig08cd_sm(benchmark, sm_world, results_dir):
    pair = sample_linkage_pair(
        sm_world, 0.5, 0.5, rng=11, timestamp_jitter_seconds=240.0
    )
    brute = run_pipeline(pair, LinkageConfig())

    rows = benchmark.pedantic(lambda: _sweep(pair, brute), rounds=1, iterations=1)
    _report(
        rows,
        brute,
        "Figure 8c/8d: SM - LSH relative F1 and speed-up",
        results_dir / "fig08cd_sm.txt",
    )

    by_point = {(r["sig_level"], r["step_windows"]): r for r in rows}
    # The speed-up take-off starts earlier and is steeper than Cab
    # (lower geographic skew): compare the same grid point.
    assert by_point[(14, 16)]["speedup"] > 5.0
    assert by_point[(14, 16)]["relative_f1"] > 0.5
    # More entities -> larger attainable speed-up than the Cab world.
    best_sm = max(r["speedup"] for r in rows)
    assert best_sm > 20.0
