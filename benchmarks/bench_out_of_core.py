"""Out-of-core benchmark: disk-backed corpus residency + restart speedup.

Two claims from the persistence layer, measured on one synthetic world:

* **Bounded residency** — a ``storage="disk"`` linker holds corpus flat
  columns in read-only memmaps only; its heap footprint
  (``memory_stats()["*_flat_resident_bytes"]``, 0 by construction on
  disk) must stay a small fraction of the in-core flats, so a change
  that brings heap copies of the columns back fails here.  The workload
  is sized so the flats exceed a RAM budget of ``CACHE_CHUNKS`` chunks
  by at least ``WORKLOAD_FACTOR`` (>= 10x — a corpus that genuinely
  cannot fit its RAM budget), and the emitted
  ``resident_ratio`` carries a self-contained ``resident_ratio_ceiling``
  the regression gate enforces at any scale.
* **Restart speedup** — rebuilding full linker state (histories,
  corpora, LSH placements, score cache, relink diagnostics) from a
  whole-linker snapshot (``StreamingLinker.restore``) must beat
  replaying the stream from scratch; ``restore_speedup`` carries its own
  ``restore_speedup_floor``.  Parity is asserted before anything is
  reported: the disk arm must produce links and scores bit-identical to
  the in-core reference, and both restart arms must relink one *fresh*
  round of data identically — the restored state is equivalent, not
  merely faster to reach.

Results land in ``benchmarks/results/BENCH_out_of_core.json``.

Run stand-alone (the CI tests job does):

    PYTHONPATH=src python benchmarks/bench_out_of_core.py --smoke

or through pytest:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_out_of_core.py
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, Tuple

from bench_util import write_bench_json
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.pipeline import LinkageConfig

RESULTS_DIR = Path(__file__).parent / "results"

WIDTH = 900.0
WINDOWS_PER_ROUND = 16

#: Full-scale workload; smoke mode shrinks it.
ROUNDS = 10
PER_SIDE = 120
RECORDS_PER_ENTITY = 8

#: RAM budget of the disk arm, in chunks.
CACHE_CHUNKS = 8
#: The flats must exceed that RAM budget by at least this
#: factor — the "cannot fit in RAM" premise, kept true at any scale by
#: deriving ``chunk_rows`` from the measured in-core footprint.
WORKLOAD_FACTOR = 10

#: Self-contained gate bounds (travel inside the emission).
RESIDENT_RATIO_CEILING = 0.5
RESTORE_SPEEDUP_FLOOR = 1.5


def _config() -> LinkageConfig:
    return LinkageConfig(candidates="temporal", threshold="none")


def _round_records(side: str, round_idx: int, per_side: int) -> List[Record]:
    """One round: ``per_side`` entities, each reporting from
    ``RECORDS_PER_ENTITY`` distinct windows of the round's span."""
    jitter = 0.0 if side == "left" else 1.2e-4
    base_window = round_idx * WINDOWS_PER_ROUND
    records = []
    for i in range(per_side):
        entity = f"e{round_idx}_{i}"
        lat = 37.5 + (i % 25) * 0.004
        lng = -122.4 + (i // 25) * 0.004
        for k in range(RECORDS_PER_ENTITY):
            window = (i * 5 + k * 3 + round_idx) % WINDOWS_PER_ROUND
            records.append(
                Record(
                    entity,
                    lat + jitter + k * 1e-5,
                    lng + jitter + k * 1e-5,
                    (base_window + window) * WIDTH + 30.0 + k,
                )
            )
    return records


def _all_records(rounds: int, per_side: int) -> Dict[str, List[Record]]:
    return {
        side: [
            record
            for round_idx in range(rounds)
            for record in _round_records(side, round_idx, per_side)
        ]
        for side in ("left", "right")
    }


def _replay(linker: StreamingLinker, rounds: int, per_side: int):
    report = None
    for round_idx in range(rounds):
        linker.observe("left", _round_records("left", round_idx, per_side))
        linker.observe("right", _round_records("right", round_idx, per_side))
        report = linker.relink()
    return report


def _flat_rows(linker: StreamingLinker) -> int:
    stats = linker.memory_stats()
    return stats["left_flat_entries"] + stats["right_flat_entries"]


def _resident_bytes(linker: StreamingLinker) -> int:
    stats = linker.memory_stats()
    return (
        stats["left_flat_resident_bytes"] + stats["right_flat_resident_bytes"]
    )


def run_out_of_core_bench(
    results_dir: Path, rounds: int = ROUNDS, per_side: int = PER_SIDE
) -> Tuple[Dict, Dict]:
    """Run both claims; returns ``(payload, parity)``."""
    # In-core reference: footprint baseline + the parity anchor.
    in_core = StreamingLinker(0.0, config=_config())
    reference = _replay(in_core, rounds, per_side)
    in_core_bytes = _resident_bytes(in_core)
    rows = _flat_rows(in_core)

    # Size chunks so the flats are >= WORKLOAD_FACTOR x the RAM budget.
    chunk_rows = max(16, rows // (CACHE_CHUNKS * WORKLOAD_FACTOR))
    workload_ratio = rows / (CACHE_CHUNKS * chunk_rows)

    with TemporaryDirectory(prefix="slim-out-of-core-") as scratch:
        scratch_dir = Path(scratch)
        on_disk = StreamingLinker(
            0.0,
            config=_config(),
            storage="disk",
            store_dir=scratch_dir / "store",
            store_chunk_rows=chunk_rows,
        )
        disk_report = _replay(on_disk, rounds, per_side)
        disk_resident = _resident_bytes(on_disk)

        links_identical = dict(reference.links) == dict(disk_report.links)
        if reference.link_scores.keys() == disk_report.link_scores.keys():
            max_score_delta = max(
                (
                    abs(
                        reference.link_scores[key]
                        - disk_report.link_scores[key]
                    )
                    for key in reference.link_scores
                ),
                default=0.0,
            )
        else:
            max_score_delta = float("inf")

        # Restart speedup: snapshot the in-core arm, then time how long
        # each path takes to rebuild full linker state — a from-scratch
        # replay (observe everything + relink) vs one snapshot restore.
        snap_dir = scratch_dir / "snaps"
        in_core.save(snap_dir)

        # Each arm starts with the collector's debt paid: a full
        # collection over the host process's heap (tens of ms under
        # pytest) otherwise lands on whichever arm allocates past the
        # threshold first — as large as the smoke-scale arms themselves.
        gc.collect()
        start = time.perf_counter()
        cold = StreamingLinker(0.0, config=_config())
        records = _all_records(rounds, per_side)
        cold.observe("left", records["left"])
        cold.observe("right", records["right"])
        cold.relink()
        cold_seconds = time.perf_counter() - start

        gc.collect()
        start = time.perf_counter()
        restored = StreamingLinker.restore(snap_dir)
        restore_seconds = time.perf_counter() - start

        # Untimed equivalence drill: both arms take one fresh round and
        # must relink identically — restored state is the replayed state.
        for arm in (cold, restored):
            arm.observe("left", _round_records("left", rounds, per_side))
            arm.observe("right", _round_records("right", rounds, per_side))
        cold_next = cold.relink()
        restored_next = restored.relink()
        restored_identical = (
            dict(restored_next.links) == dict(cold_next.links)
            and restored_next.link_scores == cold_next.link_scores  # repro-lint: disable=float-score-eq -- bit-identity of restored state is the claim under test
        )

    resident_ratio = disk_resident / in_core_bytes if in_core_bytes else 0.0
    payload = {
        "workload": {
            "world": "dense-rounds",
            "rounds": rounds,
            "entities_per_round_per_side": per_side,
            "records_per_entity": RECORDS_PER_ENTITY,
            "flat_rows": rows,
            "chunk_rows": chunk_rows,
            "cache_chunks": CACHE_CHUNKS,
            "flats_over_cache_budget": workload_ratio,
        },
        "in_core_flat_bytes": in_core_bytes,
        "disk_resident_bytes": disk_resident,
        "resident_ratio": resident_ratio,
        "resident_ratio_ceiling": RESIDENT_RATIO_CEILING,
        "cold_replay_s": cold_seconds,
        "restore_s": restore_seconds,
        "restore_speedup_note": "state rebuild: full-stream replay+relink "
        "over snapshot restore",
        "restore_speedup": cold_seconds / restore_seconds,
        "restore_speedup_floor": RESTORE_SPEEDUP_FLOOR,
        "parity": {
            "links_identical": links_identical,
            "restored_links_identical": restored_identical,
            "max_score_delta": max_score_delta,
        },
    }
    write_bench_json("out_of_core", payload, results_dir)
    return payload, payload["parity"]


def test_out_of_core_residency_and_restore(results_dir):
    """CI smoke: the >=10x workload premise holds, residency is under the
    ceiling, restore beats the cold replay, exact parity (JSON emitted)."""
    payload, parity = run_out_of_core_bench(results_dir, rounds=4, per_side=40)
    assert payload["workload"]["flats_over_cache_budget"] >= WORKLOAD_FACTOR
    assert payload["resident_ratio"] <= RESIDENT_RATIO_CEILING, (
        f"disk arm resident at {payload['resident_ratio']:.3f}x of in-core "
        f"(ceiling {RESIDENT_RATIO_CEILING}x)"
    )
    assert payload["restore_speedup"] >= RESTORE_SPEEDUP_FLOOR, (
        f"restore speedup {payload['restore_speedup']:.2f}x under the "
        f"{RESTORE_SPEEDUP_FLOOR}x floor"
    )
    assert parity["links_identical"] and parity["restored_links_identical"]
    assert parity["max_score_delta"] == 0.0


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    rounds = 4 if smoke else ROUNDS
    per_side = 40 if smoke else PER_SIDE
    payload, parity = run_out_of_core_bench(
        RESULTS_DIR, rounds=rounds, per_side=per_side
    )
    workload = payload["workload"]
    print(
        f"out-of-core: {workload['flat_rows']} flat rows at "
        f"{workload['flats_over_cache_budget']:.1f}x the RAM "
        f"budget; resident {payload['disk_resident_bytes']} B vs "
        f"{payload['in_core_flat_bytes']} B in-core "
        f"(ratio {payload['resident_ratio']:.3f}, "
        f"ceiling {payload['resident_ratio_ceiling']})"
    )
    print(
        f"restart: cold replay {payload['cold_replay_s'] * 1000:.1f} ms, "
        f"restore {payload['restore_s'] * 1000:.1f} ms "
        f"-> speedup {payload['restore_speedup']:.1f}x "
        f"(floor {payload['restore_speedup_floor']})"
    )
    if not (parity["links_identical"] and parity["restored_links_identical"]):
        print("FAIL: parity violated", file=sys.stderr)
        return 1
    if payload["resident_ratio"] > payload["resident_ratio_ceiling"]:
        print("FAIL: resident ratio above the ceiling", file=sys.stderr)
        return 1
    if payload["restore_speedup"] < payload["restore_speedup_floor"]:
        print("FAIL: restore speedup under the floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
