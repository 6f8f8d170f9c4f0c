"""Retention benchmark: bounded-memory streaming vs the unbounded baseline.

Replays a *rolling* workload — every round a fresh cohort of entities
reports a handful of records and old cohorts go quiet, the shape of a
real feed where users come and go — into two :class:`StreamingLinker`\\ s:

* **retention**: ``retention="sliding_window"`` keeps two rounds of
  activity; each relink retires the cohorts that fell out of the window,
  so corpus flats, df slots, LSH placements and score-cache rows all
  track the *live* working set;
* **baseline**: ``retention="none"`` (the pre-retention behaviour) keeps
  every entity ever observed — memory and relink latency grow with the
  stream's lifetime instead of its window.

Both use ``candidates="temporal"`` (cohorts never share windows across
rounds, so the candidate set is the honest per-window one); every relink
is exact.  Eviction parity is asserted before
anything is timed: the final retention relink must be bit-identical to a
cold run over the surviving entities.

Results land in ``benchmarks/results/BENCH_retention.json``: per-round
memory/latency series for both arms, the steady-state bound
(``memory_bound_ratio`` = flat entries / live entries, eager compaction
keeps it at 1.0), and the headline ``speedup`` (final baseline relink
over final retention relink).

Run stand-alone (the CI docs job does):

    PYTHONPATH=src python benchmarks/bench_retention.py --smoke

or through pytest:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_retention.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from bench_util import write_bench_json
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.pipeline import LinkageConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: Leaf window width (seconds) and windows spanned by one round.
WIDTH = 900.0
WINDOWS_PER_ROUND = 16

#: Full-scale workload: ROUNDS cohorts of PER_SIDE entities per side =
#: 10k entities streamed end to end.  Smoke mode shrinks both.
ROUNDS = 50
PER_SIDE = 100

#: Sliding-window age: two rounds of activity stay live.
RETENTION_WINDOWS = 2 * WINDOWS_PER_ROUND

#: The unbounded baseline relinks every this-many rounds (its relinks get
#: progressively more expensive — that growth is the point — so a sparser
#: cadence keeps the bench runnable while still tracing the trend).
BASELINE_CADENCE = 5

#: Steady-state bound the acceptance gate checks: allocated flat entries
#: may exceed the live-entity footprint by at most this factor.
MEMORY_BOUND = 1.2


def _round_records(side: str, round_idx: int, per_side: int) -> List[Record]:
    """One cohort's records: ``per_side`` fresh entities, each active in
    two pseudo-random windows of the round's span."""
    jitter = 0.0 if side == "left" else 1.2e-4
    base_window = round_idx * WINDOWS_PER_ROUND
    records = []
    for i in range(per_side):
        entity = f"e{round_idx}_{i}"
        lat = 37.5 + (i % 25) * 0.004
        lng = -122.4 + (i // 25) * 0.004
        for window in ((i * 5 + round_idx) % WINDOWS_PER_ROUND,
                       (i * 11 + 3) % WINDOWS_PER_ROUND):
            records.append(
                Record(
                    entity,
                    lat + jitter,
                    lng + jitter,
                    (base_window + window) * WIDTH + 30.0,
                )
            )
    return records


def _config(retention: bool) -> LinkageConfig:
    return LinkageConfig(
        candidates="temporal",
        threshold="none",
        retention="sliding_window" if retention else "none",
        retention_window=RETENTION_WINDOWS if retention else 0,
    )


def _memory_snapshot(linker: StreamingLinker, round_idx: int,
                     seconds: float) -> Dict[str, float]:
    stats = linker.memory_stats()
    relink = linker.last_relink
    return {
        "round": round_idx,
        "entities": stats["left_entities"] + stats["right_entities"],
        "flat_entries": stats["left_flat_entries"] + stats["right_flat_entries"],
        "flat_live": stats["left_flat_live"] + stats["right_flat_live"],
        "df_slots": stats["left_df_slots"] + stats["right_df_slots"],
        "score_cache_rows": stats["score_cache_rows"],
        "evicted": relink.evicted_left + relink.evicted_right,
        "candidate_pairs": relink.candidate_pairs,
        "relink_s": seconds,
    }


def _stream(rounds: int, per_side: int, retention: bool,
            cadence: int) -> Tuple[StreamingLinker, Dict, List[Dict]]:
    """Feed the rolling workload, relinking on ``cadence``; returns the
    linker, all observed records per side, and the per-relink series."""
    linker = StreamingLinker(origin=0.0, config=_config(retention))
    observed: Dict[str, List[Record]] = {"left": [], "right": []}
    series: List[Dict[str, float]] = []
    for round_idx in range(rounds):
        for side in ("left", "right"):
            batch = _round_records(side, round_idx, per_side)
            observed[side].extend(batch)
            linker.observe(side, batch)
        if (round_idx + 1) % cadence == 0 or round_idx == rounds - 1:
            start = time.perf_counter()
            linker.relink()
            series.append(
                _memory_snapshot(linker, round_idx,
                                 time.perf_counter() - start)
            )
    return linker, observed, series


def _assert_cold_parity(linker: StreamingLinker, observed: Dict,
                        retention: bool) -> float:
    """Final relink vs a cold linker fed only the survivors' records;
    returns the max absolute score delta (must be exactly 0.0)."""
    final = linker.relink()
    cold = StreamingLinker(origin=0.0, config=_config(retention))
    for side in ("left", "right"):
        survivors = set(linker._sides[side])
        cold.observe(
            side, [r for r in observed[side] if r.entity_id in survivors]
        )
    cold_result = cold.relink()
    assert final.links == cold_result.links, "eviction parity violated"
    cold_scores = {(e.left, e.right): e.weight for e in cold_result.edges}
    scores = {(e.left, e.right): e.weight for e in final.edges}
    assert scores.keys() == cold_scores.keys(), "edge sets differ"
    return max(
        (abs(cold_scores[key] - scores[key]) for key in cold_scores),
        default=0.0,
    )


def run_retention_bench(
    results_dir: Path, rounds: int = ROUNDS, per_side: int = PER_SIDE,
    cadence: int = BASELINE_CADENCE,
) -> Tuple[float, Dict]:
    """Run both arms; returns (memory_bound_ratio, payload)."""
    bounded, observed, bounded_series = _stream(
        rounds, per_side, retention=True, cadence=1
    )
    max_delta = _assert_cold_parity(bounded, observed, retention=True)

    baseline, _, baseline_series = _stream(
        rounds, per_side, retention=False, cadence=cadence
    )

    final = bounded_series[-1]
    ratio = (
        final["flat_entries"] / final["flat_live"]
        if final["flat_live"]
        else float("inf")
    )
    flats = [row["flat_entries"] for row in baseline_series]
    assert flats == sorted(flats), "baseline memory should only grow"

    payload = {
        "workload": {
            "world": "rolling-cohorts",
            "rounds": rounds,
            "entities_per_round_per_side": per_side,
            "total_entities": 2 * rounds * per_side,
            "windows_per_round": WINDOWS_PER_ROUND,
            "retention_windows": RETENTION_WINDOWS,
            "baseline_relink_cadence_rounds": cadence,
        },
        "retention": {
            "policy": "sliding_window",
            "series": bounded_series,
            "steady_state": final,
        },
        "baseline": {
            "policy": "none",
            "series": baseline_series,
            "final": baseline_series[-1],
        },
        "memory_bound_ratio": ratio,
        "memory_vs_baseline": (
            baseline_series[-1]["flat_entries"] / max(1, final["flat_entries"])
        ),
        "speedup": (
            baseline_series[-1]["relink_s"] / bounded_series[-1]["relink_s"]
        ),
        "parity": {
            "links_identical": True,
            "max_score_delta": max_delta,
        },
    }
    write_bench_json("retention", payload, results_dir)
    return ratio, payload


def test_retention_bounded_memory(results_dir):
    """CI smoke: steady-state memory bounded below 1.2x the live-entity
    footprint, unbounded baseline strictly larger, exact eviction parity
    (and the JSON emitted)."""
    ratio, payload = run_retention_bench(
        results_dir, rounds=6, per_side=30, cadence=2
    )
    assert ratio <= MEMORY_BOUND, (
        f"flat entries at {ratio:.2f}x the live footprint "
        f"(bound {MEMORY_BOUND}x)"
    )
    assert payload["parity"]["max_score_delta"] == 0.0
    assert payload["memory_vs_baseline"] >= 2.0, (
        "the unbounded baseline should dwarf the retention arm"
    )


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    rounds = 6 if smoke else ROUNDS
    per_side = 30 if smoke else PER_SIDE
    cadence = 2 if smoke else BASELINE_CADENCE
    ratio, payload = run_retention_bench(
        RESULTS_DIR, rounds=rounds, per_side=per_side, cadence=cadence
    )
    final = payload["retention"]["steady_state"]
    base = payload["baseline"]["final"]
    print(
        f"retention: {final['entities']} live entities, "
        f"{final['flat_entries']} flat entries "
        f"({ratio:.2f}x live footprint), relink {final['relink_s'] * 1000:.1f} ms"
    )
    print(
        f"baseline:  {base['entities']} entities, "
        f"{base['flat_entries']} flat entries "
        f"({payload['memory_vs_baseline']:.1f}x retention), "
        f"relink {base['relink_s'] * 1000:.1f} ms "
        f"-> speedup {payload['speedup']:.1f}x"
    )
    floor = float(os.environ.get("BENCH_MEMORY_BOUND", MEMORY_BOUND))
    if ratio > floor:
        print(f"FAIL: memory ratio {ratio:.2f} above {floor}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
