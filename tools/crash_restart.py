#!/usr/bin/env python
"""Crash-restart drill: SIGKILL a checkpointing linker, restore, compare.

The durability claim behind ``StreamingLinker.save``/``restore`` and the
event log (``repro.store.eventlog``) is that a process killed at *any*
instant — mid-payload-write, mid-promote, mid-append — resumes from its
last snapshot plus the intact batches of that snapshot's log and
converges to links bit-identical to a run that never crashed.  This
drill proves it the blunt way:

1. an **uninterrupted reference** replays ``ROUNDS`` deterministic
   synthetic rounds in-process and records the final links;
2. a sequence of **child attempts** (``--child``) replays the same
   stream, restoring from the snapshot directory (snapshot + log
   replay) and persisting every round through the same
   ``Checkpointer`` the serving layer uses: a snapshot at the child's
   first round and every ``SNAPSHOT_EVERY`` rounds, a log append in
   between.  Each child is armed via ``REPRO_KILL_SWITCH`` to SIGKILL
   itself at a different point: after the N-th snapshot payload write,
   right after a promote, between an append's write and its fsync, or
   right after that fsync;
3. a final unarmed child runs to completion, and the driver asserts its
   links JSON is **byte-identical** to the reference.

The scoring executor comes from ``REPRO_EXECUTOR`` (the CI matrix runs
``serial`` and ``process``), exercising restore under every backend.
``--storage disk`` runs every linker — the reference and each attempt —
with its corpus flats spilled under ``<workdir>/store``: every restore
spills into that same directory again, so an attempt also starts over a
store the killed one left with stale generations and tmp files.

Usage::

    REPRO_EXECUTOR=serial python tools/crash_restart.py --workdir /tmp/drill
    python tools/crash_restart.py --workdir /tmp/drill-disk --storage disk
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.streaming import StreamingLinker  # noqa: E402
from repro.data import Record  # noqa: E402
from repro.pipeline import LinkageConfig  # noqa: E402
from repro.store.eventlog import Checkpointer, batch_entry  # noqa: E402

ROUNDS = 12
PER_SIDE = 10
ROUND_SECONDS = 3600.0
SIDES = ("left", "right")
#: Persists per snapshot in a child (the service's cadence, made short
#: so that every child life takes later snapshots too).
SNAPSHOT_EVERY = 3
#: Kill points the driver arms, in order (each child resumes where the
#: previous one died, so every point is reached and must fire):
#: mid first snapshot, twice (before any checkpoint exists); right after
#: the second append's fsync (rounds 1-2 live only in the log); mid a
#: child's second snapshot (its log holds two rounds); right after the
#: promote of a child's second snapshot (between the ``os.replace`` and
#: the ``CURRENT`` swap, before the older snapshot and log are pruned);
#: and between an append's write and its fsync.
KILL_PLAN = [
    "snapshot-file:1",
    "snapshot-file:2",
    "eventlog-sync:2",
    "snapshot-file:5",
    "snapshot-promote:2",
    "eventlog-write:1",
]


def drill_config() -> LinkageConfig:
    """Every matched pair is a link (``threshold="none"``), so the
    bit-identity comparison covers the full matching, not the few pairs
    a data-driven stop threshold keeps on this small synthetic world."""
    return LinkageConfig(threshold="none")


def round_records(side: str, round_index: int):
    """Round ``round_index`` of the deterministic synthetic stream."""
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            f"e{i}",
            37.6 + (i % 5) * 0.01 + jitter,
            -122.4 + (i // 5) * 0.01 + jitter,
            round_index * ROUND_SECONDS + (i * 7) % 3500 + 10.0,
        )
        for i in range(PER_SIDE)
    ]


def links_payload(report) -> str:
    """Canonical JSON of one relink's links (full-precision scores)."""
    rows = [
        [left, right, repr(score)]
        for (left, right), score in sorted(report.link_scores.items())
    ]
    return json.dumps({"links": sorted(dict(report.links).items()), "scores": rows})


def replay(linker: StreamingLinker, rounds, checkpointer=None):
    """Observe and relink each round; persist it when checkpointing."""
    report = None
    for round_index in rounds:
        events = [
            ("observe", side, round_records(side, round_index)) for side in SIDES
        ]
        for _, side, records in events:
            linker.observe(side, records)
        report = linker.relink()
        if checkpointer is not None:
            checkpointer.persist(linker, batch_entry(events, relinked=True))
    return report


def resume_round(linker: StreamingLinker) -> int:
    """First unseen round, derived from the restored event-time watermark."""
    return int(linker.watermark // ROUND_SECONDS) + 1


def storage_options(storage: str, store_dir: Path) -> dict:
    """The linker keywords of one ``--storage`` choice."""
    if storage == "memory":
        return {}
    return {"storage": "disk", "store_dir": store_dir}


def child_main(snapshot_dir: Path, links_path: Path, storage: dict) -> int:
    """One checkpointing replay attempt (possibly armed to SIGKILL itself)."""
    linker = StreamingLinker.restore(snapshot_dir, **storage)
    if linker is None:
        start = 0
        linker = StreamingLinker(0.0, config=drill_config(), **storage)
    else:
        start = resume_round(linker)
    checkpointer = Checkpointer(snapshot_dir, SNAPSHOT_EVERY)
    report = replay(linker, range(start, ROUNDS), checkpointer)
    if report is None:  # restored a snapshot that already saw every round
        report = linker.relink()
    links_path.write_text(links_payload(report))
    return 0


def driver_main(workdir: Path, storage: str) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    links_path = workdir / "links.json"
    executor = os.environ.get("REPRO_EXECUTOR", "serial")
    print(
        f"crash-restart drill: executor={executor} storage={storage} "
        f"workdir={workdir}"
    )

    reference = links_payload(
        replay(
            StreamingLinker(
                0.0,
                config=drill_config(),
                **storage_options(storage, workdir / "reference-store"),
            ),
            range(ROUNDS),
        )
    )

    child_cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workdir",
        str(workdir),
        "--storage",
        storage,
    ]
    env = dict(os.environ)
    for attempt, kill_spec in enumerate(KILL_PLAN, start=1):
        env["REPRO_KILL_SWITCH"] = kill_spec
        result = subprocess.run(child_cmd, env=env)
        if result.returncode != -signal.SIGKILL:
            print(
                f"FAIL: attempt {attempt} armed with {kill_spec} exited "
                f"{result.returncode}, expected SIGKILL "
                f"({-signal.SIGKILL})",
                file=sys.stderr,
            )
            return 1
        print(f"  attempt {attempt}: killed at {kill_spec} (as armed)")

    env.pop("REPRO_KILL_SWITCH", None)
    result = subprocess.run(child_cmd, env=env)
    if result.returncode != 0:
        print(
            f"FAIL: unarmed final attempt exited {result.returncode}",
            file=sys.stderr,
        )
        return 1
    final = links_path.read_text()
    if final != reference:
        print(
            "FAIL: restored replay diverged from the uninterrupted "
            f"reference\n  reference: {reference}\n  restored:  {final}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {len(KILL_PLAN)} mid-write SIGKILLs, restored replay "
        "bit-identical to the uninterrupted reference "
        f"({len(json.loads(final)['links'])} links)"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        required=True,
        help="scratch directory for snapshots and links JSON",
    )
    parser.add_argument(
        "--storage",
        choices=("memory", "disk"),
        default="memory",
        help="where every linker keeps its corpus flats (default: memory)",
    )
    parser.add_argument(
        "--child",
        action="store_true",
        help="internal: run one checkpointing replay attempt",
    )
    args = parser.parse_args()
    workdir = Path(args.workdir)
    if args.child:
        return child_main(
            workdir / "snaps",
            workdir / "links.json",
            storage_options(args.storage, workdir / "store"),
        )
    return driver_main(workdir, args.storage)


if __name__ == "__main__":
    raise SystemExit(main())
