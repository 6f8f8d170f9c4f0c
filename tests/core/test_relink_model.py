"""Model-based gate for the delta relink (ROADMAP item 5b, scoped to the
linker): after *any* sequence of updates, the maintained answer equals
from-scratch evaluation.

Seeded random op sequences — grow an entity, add one (either side, the
same id on both), explicit ``retire()`` (half the time re-observed
elsewhere before the next relink), retention eviction, a clock jump
that forces an LSH layout rebuild, ``relink()``, a relink that fails at a
random stage and is retried, ``save()`` → ``restore()``, an attached
cache ``clear()``-ed mid-sequence — run against three linkers:

* the **subject**, which takes the delta path whenever it may;
* a **twin** fed the same ops that does ``_restore(checkpoint())`` before
  every relink — a full capture carries no pair table, so by
  construction the twin always takes the rebuild path (the index keeps
  no pair set of its own: it answers from its buckets);
* a **cold** linker over the records of the entities that survive.

Subject and twin must agree with ``==`` on links, scores,
``RelinkStats``, ``score_cache.hits`` / ``misses`` and ``len(score_cache)``
after every step; subject and cold on links and scores.  A failure
prints the seed and the shortest failing prefix of the op sequence.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import pytest

from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh.index import LshConfig
from repro.pipeline import LinkageConfig

SIDES = ("left", "right")
HOUR = 3600.0
LSH = LshConfig(threshold=0.3, step_windows=8, spatial_level=14)


def _records(entity, side, place, when, count):
    """``count`` sightings of ``entity`` around place ``place``; the two
    sides see the same place a few metres apart."""
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            entity,
            37.6 + (place % 5) * 0.01 + jitter,
            -122.4 + (place // 5) * 0.01 + jitter,
            when + 40.0 * k,
        )
        for k in range(count)
    ]


def _generate(seed, steps, points, *, clearable):
    """A reproducible op sequence: plain tuples, so a failing prefix
    prints as something one can paste back."""
    rng = random.Random(seed)
    ops = []
    held = {side: set() for side in SIDES}
    clock = 10.0
    for entity in range(6):  # a resident population with true matches
        for side in SIDES:
            ops.append(("observe", side, f"e{entity}", entity, clock, 3))
            held[side].add(f"e{entity}")
    ops.append(("relink",))
    fresh = 6
    for _ in range(steps):
        roll = rng.random()
        side = rng.choice(SIDES)
        clock += rng.choice((60.0, 400.0, 1500.0))
        if roll < 0.30 and held[side]:
            entity = rng.choice(sorted(held[side]))
            place = int(entity[1:]) + rng.choice((0, 0, 1))
            ops.append(("observe", side, entity, place, clock, rng.randint(1, 3)))
        elif roll < 0.42:
            other = "right" if side == "left" else "left"
            missing = sorted(held[other] - held[side])
            if missing and rng.random() < 0.5:
                entity = rng.choice(missing)  # the same id, now on both sides
            else:
                entity, fresh = f"e{fresh}", fresh + 1
            ops.append(("observe", side, entity, int(entity[1:]), clock, 2))
            held[side].add(entity)
        elif roll < 0.50 and len(held[side]) > 3:
            entity = rng.choice(sorted(held[side]))
            ops.append(("retire", side, entity))
            held[side].discard(entity)
            if rng.random() < 0.5:
                # ... and straight back, somewhere else, before any relink:
                # the new history restarts at the version the old one had.
                ops.append(("observe", side, entity, int(entity[1:]) + 7, clock, 2))
                held[side].add(entity)
        elif roll < 0.58:
            # Span growth: the signature gains slots, the layout rebuilds
            # (and a sliding window leaves the idle entities behind).
            clock += rng.choice((3, 9)) * HOUR
            for target in SIDES:
                entity = rng.choice(sorted(held[target]))
                ops.append(("observe", target, entity, int(entity[1:]), clock, 1))
        elif roll < 0.66:
            ops.append(("fail", rng.choice(points)))
        elif roll < 0.72:
            ops.append(("save-restore",))
        elif roll < 0.76 and clearable:
            ops.append(("clear",))
        else:
            ops.append(("relink",))
    ops.append(("relink",))
    return ops


class _Trio:
    """Subject, twin and the record log the cold linker is built from."""

    def __init__(self, config, tmp_path, failures, *, attached):
        self.config = config
        self.tmp_path = tmp_path
        self.failures = failures
        self.saves = 0

        def linker():
            if attached:
                return StreamingLinker(0.0, config, score_cache=ScoreCache())
            return StreamingLinker(0.0, config)

        self.subject, self.twin = linker(), linker()
        self.log = {side: {} for side in SIDES}

    def both(self):
        return (self.subject, self.twin)

    def relink(self, failure=None):
        """One relink on each; returns what must agree between them."""
        views = []
        for linker in self.both():
            if linker is self.twin:
                linker._restore(linker.checkpoint())
            if failure is not None:
                # Not every failure point is reached by every relink (no
                # misses: no store; one dirty history: no second placement) — then this
                # is one more committed relink, on both linkers alike.
                with self.failures(failure), contextlib.suppress(self.failures.Boom):
                    linker.relink()
                if linker is self.twin:
                    linker._restore(linker.checkpoint())
            report = linker.relink()
            cache = linker.score_cache
            views.append(
                (
                    dict(report.links),
                    report.link_scores,
                    linker.last_relink,
                    cache.hits,
                    cache.misses,
                    len(cache),
                )
            )
        # Retention retired whoever the subject no longer holds.
        for side in SIDES:
            survivors = self.subject._sides[side]
            for entity in [e for e in self.log[side] if e not in survivors]:
                del self.log[side][entity]
        return views

    def cold(self):
        cold = StreamingLinker(0.0, self.config)
        for side in SIDES:
            cold.observe(
                side, [r for rows in self.log[side].values() for r in rows]
            )
        report = cold.relink()
        return dict(report.links), report.link_scores

    def apply(self, op):
        kind = op[0]
        if kind == "observe":
            _, side, entity, place, when, count = op
            rows = _records(entity, side, place, when, count)
            self.log[side].setdefault(entity, []).extend(rows)
            for linker in self.both():
                linker.observe(side, rows)
        elif kind == "retire":
            _, side, entity = op
            if entity not in self.log[side] or len(self.log[side]) < 2:
                return  # retention got there first, or nobody else is left
            del self.log[side][entity]
            for linker in self.both():
                linker.retire(side, [entity])
        elif kind == "clear":
            for linker in self.both():
                linker.score_cache.clear()
        elif kind == "save-restore":
            self.saves += 1
            restored = []
            for name, linker in zip(("subject", "twin"), self.both()):
                root = self.tmp_path / f"{name}-{self.saves}"
                linker.save(root)
                restored.append(StreamingLinker.restore(root, strict=True))
            self.subject, self.twin = restored
        else:
            subject, twin = self.relink(op[1] if kind == "fail" else None)
            assert subject == twin, "delta path != rebuild path"
            assert subject[:2] == self.cold(), "incremental != cold"


SCENARIOS = {
    "lsh": dict(lsh=LSH),
    "lsh-sliding-window": dict(
        lsh=LSH, retention="sliding_window", retention_window=40
    ),
    "lsh-attached-cleared": dict(lsh=LSH, attached=True),
    "lsh-sharded": dict(lsh=LSH, score_block_size=8),
    "brute": dict(),
    "brute-max-entities": dict(retention="max_entities", retention_window=8),
    "python-oracle": dict(lsh=LSH, backend="python"),
}


@pytest.mark.parametrize(
    "scenario, seed",
    [
        ("lsh", 3),
        ("lsh", 17),
        ("lsh-sliding-window", 17),
        ("lsh-attached-cleared", 3),
        ("lsh-sharded", 17),
        ("brute", 3),
        ("brute", 17),
        ("brute-max-entities", 17),
        ("python-oracle", 3),
    ],
)
def test_any_update_sequence_equals_from_scratch(
    scenario, seed, tmp_path, relink_failures
):
    options = dict(SCENARIOS[scenario])
    attached = options.pop("attached", False)
    backend = options.pop("backend", "numpy")
    config = LinkageConfig(threshold="none", **options)
    if backend != "numpy":
        config = config.without(
            similarity=config.similarity.without(backend=backend)
        )
    ops = _generate(seed, 40, relink_failures.points, clearable=attached)
    trio = _Trio(config, tmp_path, relink_failures, attached=attached)
    for done, op in enumerate(ops, start=1):
        try:
            trio.apply(op)
        except BaseException:
            print(f"\nseed {seed}, scenario {scenario!r}: shortest failing prefix")
            for step in ops[:done]:
                print(f"    {step!r},")
            raise


def test_the_subject_really_takes_the_delta_path():
    """The gate above would pass vacuously if the subject rebuilt every
    round too: on an LSH run most relinks must leave most pairs
    untouched."""
    config = LinkageConfig(threshold="none", lsh=LSH)
    linker = StreamingLinker(0.0, config)
    asked = []
    original = ScoreCache.lookup_batch

    def counting(self, space, pairs, *args):
        asked.append(len(pairs))
        return original(self, space, pairs, *args)

    spared = 0
    with mock.patch.object(ScoreCache, "lookup_batch", counting):
        for op in _generate(3, 40, ("matching",), clearable=False):
            if op[0] == "observe":
                _, side, entity, place, when, count = op
                linker.observe(side, _records(entity, side, place, when, count))
            elif op[0] == "retire":
                linker.retire(op[1], [op[2]])
            elif op[0] == "relink":
                del asked[:]
                linker.relink()
                spared += sum(asked) < linker.last_relink.candidate_pairs
    assert spared >= 3
