"""The LSH candidate-pair index (Sec. 4).

Signatures from both datasets are banded and each non-empty band is hashed
into a finite table of buckets; a cross-dataset pair co-located in any
bucket becomes a *candidate pair* and is the only kind of pair the
similarity engine ever scores.  The bucket count is a real parameter (the
paper sweeps 2^8..2^20 in Fig. 9): fewer buckets mean more accidental
collisions, more candidates, less speed-up — the index therefore hashes
``(band index, band content)`` *modulo* ``num_buckets`` rather than using
Python dict semantics directly.

Population is array-shaped end to end: one side's signatures are one
uint64 matrix (:func:`repro.lsh.signature.signature_matrix` — a single
pass over the side's histories, no per-entity structure built) and every
band of every row is FNV-1a-hashed in a single numpy pass
(:func:`repro.lsh.banding.band_bucket_ids`).  Everything that places an
entity — :meth:`LshIndex.add_histories`, a single :meth:`LshIndex.add`,
the streaming linker's re-signaturing of dirty histories — goes through
:meth:`LshIndex.add_signatures`, so incremental and batch population
place entities in identical buckets.

Candidate pairs are **queried, never maintained**:
:meth:`LshIndex.candidate_pairs` enumerates every bucket (a batch run pays
exactly that and nothing else), and :meth:`LshIndex.pairs_of` answers for
the named entities only, visiting just their buckets.  A pair's
shared-bucket status changes only when one of its endpoints is re-placed
or withdrawn, so a caller that keeps its own candidate set — the streaming
linker's pair table — follows an update by dropping the pairs of the
entities it changed and adding their ``pairs_of``: O(delta), not
O(candidate set).

>>> config = LshConfig(threshold=0.5, step_windows=4, spatial_level=14)
>>> index = LshIndex(config, config.signature_spec(16))
>>> index.add("a", (11, 12, 13, 14), "left")
>>> index.add("b", (21, 22, 23, 24), "left")
>>> index.add("x", (11, 12, 13, 14), "right")
>>> index.add("y", (21, 22, 23, 25), "right")
>>> sorted(index.candidate_pairs())
[('a', 'x'), ('b', 'y')]
>>> index.remove("x", "right")       # its band placements withdrawn
3
>>> sorted(index.pairs_of(["a", "b"], []))
[('b', 'y')]
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.history import MobilityHistory
from ..knobs import knob, validate
from .banding import band_bucket_ids, bands_for_threshold
from .signature import SignatureSpec, signature_matrix, signatures_to_array

__all__ = ["LshConfig", "LshIndex", "LshStats"]


@dataclass(frozen=True)
class LshConfig:
    """Parameters of the LSH procedure (Sec. 4 lists exactly these three,
    plus the bucket-table size studied in Fig. 9).

    Attributes
    ----------
    threshold:
        Target signature similarity ``t`` above which pairs should become
        candidates (paper default 0.6).
    step_windows:
        Query window size in leaf windows (the *temporal step*).
    spatial_level:
        Grid level of the dominating cells.
    num_buckets:
        Size of the bucket table (paper default 4096).
    """

    threshold: float = knob(
        0.6, "LSH signature similarity threshold", flag="--lsh-threshold", gt=0, lt=1
    )
    step_windows: int = knob(
        16, "LSH query step in leaf windows", flag="--lsh-step-windows", ge=1
    )
    spatial_level: int = knob(
        16, "LSH dominating-cell level", flag="--lsh-spatial-level", ge=0, le=30
    )
    num_buckets: int = knob(4096, "LSH bucket-table size", flag="--lsh-buckets", ge=1)

    def __post_init__(self) -> None:
        validate(self)

    def signature_spec(self, total_windows: int) -> SignatureSpec:
        """The signature layout for a run spanning ``total_windows`` leaf
        windows (under a common windowing, so signatures start at window
        0).  The single policy both the batch pipeline and the streaming
        linker derive their specs from — keep them agreeing bucket for
        bucket."""
        return SignatureSpec(
            start_window=0,
            total_windows=total_windows,
            step_windows=self.step_windows,
            spatial_level=self.spatial_level,
        )


@dataclass
class LshStats:
    """Diagnostics of one index build."""

    signature_length: int = 0
    num_bands: int = 0
    buckets_used: int = 0
    hashed_bands_left: int = 0
    hashed_bands_right: int = 0
    candidate_pairs: int = 0


class _IndexJournal:
    """What one transaction overwrote in an :class:`LshIndex`: the prior
    value of every bucket and placement it touched (recorded on first
    touch; ``None`` = was absent) plus the scalars, so
    :meth:`LshIndex.restore` can put exactly those back."""

    __slots__ = ("index", "spec", "num_bands", "stats", "buckets", "placements")

    def __init__(self, index: "LshIndex") -> None:
        self.index = index
        self.spec = index.spec
        self.num_bands = index.num_bands
        self.stats = replace(index.stats)
        self.buckets: Dict[int, Optional[Tuple[List[str], List[str]]]] = {}
        self.placements: Dict[Tuple[str, str], Optional[List[int]]] = {}


class LshIndex:
    """Banded bucket index over dominating-cell signatures."""

    def __init__(self, config: LshConfig, spec: SignatureSpec) -> None:
        if spec.spatial_level != config.spatial_level:
            raise ValueError("signature spec level must match LSH config level")
        self.config = config
        self.spec = spec
        self.num_bands = bands_for_threshold(spec.length, config.threshold)
        self._buckets: Dict[int, Tuple[List[str], List[str]]] = {}
        # Which buckets each (side, entity) was hashed into — the undo log
        # that makes incremental re-signaturing (remove + add) possible.
        self._placements: Dict[Tuple[str, str], List[int]] = {}
        self.stats = LshStats(
            signature_length=spec.length, num_bands=self.num_bands
        )
        self._journal: Optional[_IndexJournal] = None

    @property
    def num_entities(self) -> int:
        """Entities placed in the index, both sides together."""
        return len(self._placements)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def _touch_bucket(self, journal: _IndexJournal, bucket_id: int) -> None:
        """Journal a bucket's membership lists before their first
        in-place change inside a transaction."""
        if bucket_id not in journal.buckets:
            bucket = self._buckets.get(bucket_id)
            journal.buckets[bucket_id] = (
                None if bucket is None else (list(bucket[0]), list(bucket[1]))
            )

    def _partners(self, placed: List[int], column: int) -> Set[str]:
        """Opposite-side entities sharing any of the ``placed`` buckets."""
        partners: Set[str] = set()
        buckets = self._buckets
        for bucket_id in placed:
            partners.update(buckets[bucket_id][1 - column])
        return partners

    def add_signatures(
        self, entity_ids: Sequence[str], signatures: np.ndarray, side: str
    ) -> None:
        """Place ``entity_ids`` on ``side`` (``"left"`` or ``"right"``)
        under the rows of ``signatures`` — an ``(N, spec.length)`` uint64
        matrix, 0 = placeholder, as :func:`~repro.lsh.signature.signature_matrix`
        returns it.  The one way into the buckets.

        All bands of all rows are hashed in one
        :func:`~repro.lsh.banding.band_bucket_ids` call; entities are
        then placed one after the other, each first withdrawn from
        wherever an earlier signature had put it (:meth:`remove`) — so
        re-signaturing a changed history is the same call as inserting a
        new one, and leaves every bucket with the members inserting the
        final signatures into an empty index would give it.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
        if signatures.ndim != 2 or signatures.shape[0] != len(entity_ids):
            raise ValueError("need one signature row per entity")
        if signatures.shape[1] != self.spec.length:
            raise ValueError(
                f"signature length {signatures.shape[1]} differs from the "
                f"index's spec length {self.spec.length}"
            )
        rows = band_bucket_ids(signatures, self.num_bands, self.config.num_buckets)
        column = 0 if side == "left" else 1
        buckets = self._buckets
        placements = self._placements
        journal = self._journal
        hashed = 0
        for entity_id, row in zip(entity_ids, rows.tolist()):
            self.remove(entity_id, side)
            key = (side, entity_id)
            if journal is not None:
                journal.placements.setdefault(key, None)
            placed = placements[key] = []
            for bucket_id in row:
                if bucket_id < 0:
                    continue
                hashed += 1
                if journal is not None:
                    self._touch_bucket(journal, bucket_id)
                bucket = buckets.get(bucket_id)
                if bucket is None:
                    bucket = ([], [])
                    buckets[bucket_id] = bucket
                bucket[column].append(entity_id)
                placed.append(bucket_id)
        self.stats.buckets_used = len(buckets)
        if side == "left":
            self.stats.hashed_bands_left += hashed
        else:
            self.stats.hashed_bands_right += hashed

    def add(self, entity_id: str, signature: Tuple[Optional[int], ...], side: str) -> None:
        """Insert one signature on ``side`` (``"left"`` or ``"right"``):
        :meth:`add_signatures` on a one-row matrix, so incremental
        inserts land in identical buckets.
        """
        self.add_signatures([entity_id], signatures_to_array([signature]), side)

    def remove(self, entity_id: str, side: str) -> int:
        """Withdraw one entity's band placements (streaming update).

        Together with :meth:`add`, this gives the index *delta
        semantics*: after ``remove`` + ``add`` with a fresh signature, the
        bucket table is element-for-element what a cold rebuild over the
        current histories would produce.  Returns the number of band
        placements removed (0 when the entity was never inserted).
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
        key = (side, entity_id)
        if key not in self._placements:
            return 0
        placed = self._placements.pop(key)
        journal = self._journal
        if journal is not None:
            # By reference: a popped list is never mutated again.
            journal.placements.setdefault(key, placed)
        column = 0 if side == "left" else 1
        buckets = self._buckets
        for bucket_id in placed:
            if journal is not None:
                self._touch_bucket(journal, bucket_id)
            bucket = buckets[bucket_id]
            bucket[column].remove(entity_id)
            if not bucket[0] and not bucket[1]:
                del buckets[bucket_id]
        self.stats.buckets_used = len(buckets)
        if side == "left":
            self.stats.hashed_bands_left -= len(placed)
        else:
            self.stats.hashed_bands_right -= len(placed)
        return len(placed)

    def update_spec(self, spec: SignatureSpec) -> None:
        """Adopt a spec whose window span grew without changing the
        signature layout (same length, same level — hence same banding).

        Under a fixed windowing origin, growing ``total_windows`` inside
        the same last signature slot cannot change any *unchanged*
        history's dominating cells, so existing placements stay valid;
        only changed histories need ``remove`` + ``add``.  A span change
        that alters the slot count requires a fresh index.
        """
        if spec.spatial_level != self.config.spatial_level:
            raise ValueError("signature spec level must match LSH config level")
        if spec.length != self.spec.length:
            raise ValueError(
                "signature length changed "
                f"({self.spec.length} -> {spec.length}); rebuild the index"
            )
        self.spec = spec

    # ------------------------------------------------------------------
    # state: a full capture for snapshots, a journal for transactions
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """The index's whole state as a plain dict, for :meth:`restore`
        (the capture linker snapshots write): spec, stats and the
        placements.  Bucket membership is not in it — it is the
        placements read bucket by bucket, and :meth:`restore` rebuilds it
        in one pass (the order of a bucket's members is arrival detail,
        not state).  The placement lists are copied — here and again on
        restore — so a capture shares no list with a live index and one
        capture supports any number of restores."""
        return {
            "spec": self.spec,
            "placements": {k: list(v) for k, v in self._placements.items()},
            "stats": replace(self.stats),
        }

    def _begin(self) -> _IndexJournal:
        """Open a transaction: from here until :meth:`_commit`, every
        bucket list, placement and counter is journaled on first
        touch — O(writes), where :meth:`checkpoint` is O(index).
        :meth:`restore` on the returned journal undoes them."""
        self._journal = _IndexJournal(self)
        return self._journal

    def _commit(self) -> None:
        """Close the transaction, keeping its writes."""
        self._journal = None

    def restore(self, state: object) -> None:
        """Become the index a :meth:`checkpoint` captured, discarding
        every placement (and layout) change since — this index rewound,
        or a fresh one of the same config after a restart; or, handed the
        journal of the open transaction, undo exactly its writes."""
        self._journal = None
        if isinstance(state, _IndexJournal):
            self._rollback(state)
            return
        self.spec = state["spec"]
        self.num_bands = bands_for_threshold(
            self.spec.length, self.config.threshold
        )
        self._placements = {k: list(v) for k, v in state["placements"].items()}
        self._buckets = {}
        for (side, entity_id), placed in self._placements.items():
            for bucket_id in placed:
                bucket = self._buckets.setdefault(bucket_id, ([], []))
                bucket[0 if side == "left" else 1].append(entity_id)
        self.stats = replace(state["stats"])

    def _rollback(self, journal: _IndexJournal) -> None:
        for bucket_id, prior in journal.buckets.items():
            if prior is None:
                self._buckets.pop(bucket_id, None)
            else:
                self._buckets[bucket_id] = prior
        for key, placed in journal.placements.items():
            if placed is None:
                self._placements.pop(key, None)
            else:
                self._placements[key] = placed
        self.spec, self.num_bands = journal.spec, journal.num_bands
        self.stats = journal.stats

    def add_histories(
        self,
        left: Mapping[str, MobilityHistory],
        right: Mapping[str, MobilityHistory],
    ) -> None:
        """Signature and insert every history of both datasets: one
        :func:`~repro.lsh.signature.signature_matrix` and one
        :meth:`add_signatures` per side.
        """
        for histories, side in ((left, "left"), (right, "right")):
            self.add_signatures(
                list(histories), signature_matrix(histories, self.spec), side
            )

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------
    def candidate_pairs(self) -> Set[Tuple[str, str]]:
        """All cross-dataset pairs sharing at least one bucket: one pass
        over every bucket, which also refreshes the ``buckets_used`` and
        ``candidate_pairs`` stats.  Returns a new set."""
        candidates: Set[Tuple[str, str]] = set()
        for lefts, rights in self._buckets.values():
            if lefts and rights:
                for left_entity in set(lefts):
                    for right_entity in set(rights):
                        candidates.add((left_entity, right_entity))
        self.stats.buckets_used = len(self._buckets)
        self.stats.candidate_pairs = len(candidates)
        return candidates

    def pairs_of(
        self, lefts: Iterable[str], rights: Iterable[str]
    ) -> Set[Tuple[str, str]]:
        """The candidate pairs with their left entity in ``lefts`` or
        their right entity in ``rights`` — O(those entities' buckets).
        Entities not placed in the index have no pairs."""
        pairs: Set[Tuple[str, str]] = set()
        for side, column, entities in (("left", 0, lefts), ("right", 1, rights)):
            for entity_id in entities:
                placed = self._placements.get((side, entity_id))
                if not placed:
                    continue
                for partner in self._partners(placed, column):
                    pairs.add(
                        (entity_id, partner) if column == 0 else (partner, entity_id)
                    )
        return pairs
