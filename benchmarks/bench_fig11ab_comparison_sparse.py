"""Figure 11a/11b: SLIM vs ST-Link vs GM as evidence grows — hit
precision@40, F1 and runtime over average records per entity.

The paper samples datasets averaging 20..660 records per entity from a
675-record pivot and reports: all methods eventually reach (near-)perfect
hit precision@40; F1 separates them — SLIM reaches ~0.3 F1 already at 20
records while ST-Link and GM sit near 0.05, and SLIM stays best at 660
(0.92 vs 0.87 / 0.73); GM is orders of magnitude slower (it is therefore
run on the sparser points only, as the paper restricted GM to a one-week
subset for the same reason).
"""

from bench_util import write_series

from repro.baselines import GmLinker, StLinkLinker
from repro.pipeline import LinkageConfig
from repro.data import sample_linkage_pair
from repro.data.synth import default_cab_world
from repro.eval import (
    hit_precision_at_k,
    precision_recall_f1,
    run_pipeline,
    score_all_pairs,
)
from repro.lsh import LshConfig

TARGET_RECORDS = (20, 40, 80, 165, 330, 660)
GM_MAX_RECORDS = 165  # GM has no scaling mechanism; see module docstring.


def _sparse_world():
    return default_cab_world(
        num_taxis=100, duration_days=1.0, sample_period_seconds=120, seed=17
    ).generate()


def _sweep(world):
    full_avg = world.num_records / world.num_entities
    rows = []
    for target in TARGET_RECORDS:
        inclusion = min(1.0, target / full_avg)
        pair = sample_linkage_pair(
            world, 0.5, inclusion, rng=17, min_records=5
        )

        slim = run_pipeline(pair, LinkageConfig())
        scores, _ = score_all_pairs(pair)
        slim_hit = hit_precision_at_k(scores, pair.ground_truth, 40)

        lsh = run_pipeline(
            pair,
            LinkageConfig(
                lsh=LshConfig(threshold=0.3, step_windows=16, spatial_level=14)
            ),
        )

        stlink = StLinkLinker().link(pair.left, pair.right)
        stlink_hit = hit_precision_at_k(stlink.extras["scores"], pair.ground_truth, 40)

        row = {
            "avg_records": round(
                (pair.left.num_records / pair.left.num_entities
                 + pair.right.num_records / pair.right.num_entities) / 2, 1
            ),
            "slim_hit40": slim_hit,
            "stlink_hit40": stlink_hit,
            "slim_f1": slim.f1,
            "slim_lsh_f1": lsh.f1,
            "stlink_f1": precision_recall_f1(stlink.links, pair.ground_truth).f1,
            "slim_runtime_s": slim.runtime_seconds,
            "stlink_runtime_s": stlink.runtime_seconds,
        }
        if target <= GM_MAX_RECORDS:
            gm = GmLinker().link(pair.left, pair.right)
            row["gm_hit40"] = hit_precision_at_k(
                gm.extras["scores"], pair.ground_truth, 40
            )
            row["gm_f1"] = precision_recall_f1(gm.links, pair.ground_truth).f1
            row["gm_runtime_s"] = gm.runtime_seconds
        rows.append(row)
    return rows


def test_fig11ab_sparse_comparison(benchmark, results_dir):
    world = _sparse_world()
    rows = benchmark.pedantic(lambda: _sweep(world), rounds=1, iterations=1)

    write_series(
        rows,
        results_dir / "fig11ab_comparison_sparse.txt",
        title="Figure 11a/11b: hit precision@40, F1 and runtime vs avg records",
    )

    first, last = rows[0], rows[-1]

    # 11a: hit precision rises with records; SLIM (near-)tops the ranking
    # metric at the dense end.
    assert last["slim_hit40"] >= 0.9
    assert last["slim_hit40"] >= first["slim_hit40"] - 1e-9
    # 11b: SLIM's F1 grows monotonically-ish with evidence and dominates
    # the dense end (paper: 0.92 vs 0.87 ST-Link / 0.73 GM), with LSH-SLIM
    # close behind (paper: 0.89).
    #
    # Scale-down divergence (docs/ARCHITECTURE.md, "Paper figures"): at the 20-record
    # sparse end the paper reports SLIM ~0.3 vs ~0.05 for both baselines; in
    # our synthetic city exact-cell co-occurrence stays discriminative at 20
    # records, so ST-Link and especially GM hold up better than on the real
    # SF trace, and SLIM's sparse-end advantage does not reproduce.
    assert last["slim_f1"] >= last["stlink_f1"] - 0.05
    assert last["slim_f1"] >= 0.9
    assert last["slim_lsh_f1"] >= last["slim_f1"] - 0.25
    assert last["slim_f1"] >= first["slim_f1"]
    # GM is the slowest method where it ran (paper: two orders slower) and
    # its cost grows fastest with record count.
    gm_rows = [r for r in rows if "gm_runtime_s" in r]
    assert gm_rows
    assert gm_rows[-1]["gm_runtime_s"] > gm_rows[-1]["stlink_runtime_s"]
    assert gm_rows[-1]["gm_runtime_s"] > gm_rows[0]["gm_runtime_s"]
