"""The LSH candidate-pair index (Sec. 4).

Signatures from both datasets are banded and each non-empty band is hashed
into a finite table of buckets; a cross-dataset pair co-located in any
bucket becomes a *candidate pair* and is the only kind of pair the
similarity engine ever scores.  The bucket count is a real parameter (the
paper sweeps 2^8..2^20 in Fig. 9): fewer buckets mean more accidental
collisions, more candidates, less speed-up — the index therefore hashes
``(band index, band content)`` *modulo* ``num_buckets`` rather than using
Python dict semantics directly.  Bucket ids are global across bands: two
bands of different index that hash to the same id collide too.

The index is two columns of codes: per side, one ``(codes, bands)`` int64
**bucket matrix** whose row ``c`` holds the buckets entity code ``c`` was
hashed into, one per band, ``-1`` for a band with nothing to hash and for
a code never placed (or withdrawn).  Entity codes are the caller's: the
streaming linker passes its score cache's
(:class:`~repro.core.score_cache.EntityTables`), so index, cache and pair
table share one numbering; :meth:`LshIndex.add_histories` codes each side
by sorted-id position.  A write makes a new matrix rather than changing
the old one, so a capture (:meth:`LshIndex.checkpoint`) holds both by
reference and a rollback puts them back.

Population is array-shaped end to end: one side's signatures are one
uint64 matrix (:func:`repro.lsh.signature.signature_matrix`) and every
band of every row is FNV-1a-hashed in a single numpy pass
(:func:`repro.lsh.banding.band_bucket_ids`), so incremental and batch
population place entities in identical buckets.

Candidate pairs are **queried, never maintained**, as int64 pair codes
``left << 32 | right``: :meth:`LshIndex.candidate_pairs` joins the two
sides' ``(bucket, code)`` entries with one sort and one bisection (a
batch run pays exactly that), and :meth:`LshIndex.pairs_of` answers for
named entities only — their buckets marked, the other side's matrix
gathered through the marks.  A pair's shared-bucket status changes only
when one of its endpoints is re-placed or withdrawn, so a caller that
keeps its own candidate set — the streaming linker's pair table —
follows an update by dropping the pairs of the entities it changed and
adding their ``pairs_of``: O(delta) joining, not O(candidate set).

>>> config = LshConfig(threshold=0.5, step_windows=4, spatial_level=14)
>>> index = LshIndex(config, config.signature_spec(16))
>>> index.add_signatures(
...     [0, 1], np.array([[11, 12, 13, 14], [21, 22, 23, 24]], np.uint64), "left")
>>> index.add_signatures(
...     [0, 1], np.array([[11, 12, 13, 14], [21, 22, 23, 25]], np.uint64), "right")
>>> [divmod(code, 1 << 32) for code in index.candidate_pairs().tolist()]
[(0, 0), (1, 1)]
>>> index.remove([0], "right")       # its band placements withdrawn
>>> [divmod(code, 1 << 32) for code in index.pairs_of([0, 1], []).tolist()]
[(1, 1)]
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from ..core.history import MobilityHistory, distinct
from ..knobs import knob, validate
from .banding import band_bucket_ids, bands_for_threshold
from .signature import SignatureSpec, signature_matrix

__all__ = ["LshConfig", "LshIndex", "LshStats"]

_COLUMN = {"left": 0, "right": 1}


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


def _entries(matrix: np.ndarray, keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(bucket, code)`` entries of a bucket matrix at the cells
    ``keep`` marks (one flag per cell, row after row), as two columns."""
    at = np.flatnonzero(keep)
    return matrix.ravel()[at], at // matrix.shape[1]


def _join(
    left: Tuple[np.ndarray, np.ndarray], right: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The pair code of every left and right ``(bucket, code)`` entry
    sharing a bucket, once per shared bucket: the left entries sorted
    once, each right entry's run of them found by bisection and
    expanded."""
    order = np.argsort(left[0])
    buckets, codes = left[0][order], left[1][order]
    lo = np.searchsorted(buckets, right[0], "left")
    counts = np.searchsorted(buckets, right[0], "right") - lo
    at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return (codes[at] << 32) | np.repeat(right[1], counts)


def _pack_index(state: Dict[str, object]) -> Dict[str, object]:
    """A linker's LSH capture — :meth:`LshIndex.checkpoint` plus ``ids``,
    per side the id of each code — cut to its placed rows, row ``i`` of a
    side's matrix staying the row of that side's ``ids[i]``: what a
    snapshot writes, two arrays a side."""
    ids, matrices = [], []
    for side_ids, matrix in zip(state["ids"], state["matrices"]):
        rows = np.flatnonzero((matrix >= 0).any(axis=1))
        ids.append(side_ids[rows])
        matrices.append(matrix[rows])
    return dict(state, ids=tuple(ids), matrices=tuple(matrices))


def _unpack_index(
    state: Dict[str, object], encode: Callable[[int, np.ndarray], np.ndarray]
) -> Dict[str, object]:
    """A linker's LSH capture, packed or not, with its matrices
    re-indexed by ``encode(side, ids)``: the codes the rows had in the
    process that captured them, a fresh numbering after a restart."""
    state, matrices = _pack_index(state), []
    for side, (ids, rows) in enumerate(zip(state["ids"], state["matrices"])):
        codes = encode(side, ids)
        matrix = np.full((codes.max(initial=-1) + 1, rows.shape[1]), -1, np.int64)
        matrix[codes] = rows
        matrices.append(matrix)
    return dict(state, matrices=tuple(matrices))


class LshIndex:
    """Banded bucket index over dominating-cell signatures: one bucket
    matrix per side, indexed by entity code (see the module docstring)."""

    def __init__(self, config: LshConfig, spec: SignatureSpec) -> None:
        if spec.spatial_level != config.spatial_level:
            raise ValueError("signature spec level must match LSH config level")
        self.config = config
        self.spec = spec
        self.num_bands = bands_for_threshold(spec.length, config.threshold)
        empty = np.empty((0, self.num_bands), dtype=np.int64)
        self._matrices: Tuple[np.ndarray, np.ndarray] = (empty, empty)
        self.stats = LshStats(
            signature_length=spec.length, num_bands=self.num_bands
        )

    @property
    def num_entities(self) -> int:
        """Entities placed in the index, both sides together."""
        return sum(int((m >= 0).any(axis=1).sum()) for m in self._matrices)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_signatures(
        self, codes: Sequence[int], signatures: np.ndarray, side: str
    ) -> None:
        """Place the entities ``codes`` on ``side`` (``"left"`` or
        ``"right"``) under the rows of ``signatures`` — an
        ``(N, spec.length)`` uint64 matrix, 0 = placeholder, as
        :func:`~repro.lsh.signature.signature_matrix` returns it.

        All bands of all rows are hashed in one
        :func:`~repro.lsh.banding.band_bucket_ids` call and written over
        the codes' rows, so re-signaturing a changed history is the same
        call as inserting a new one and leaves the index exactly as
        inserting the final signatures into an empty one would.
        """
        if signatures.ndim != 2 or signatures.shape[0] != len(codes):
            raise ValueError("need one signature row per entity")
        if signatures.shape[1] != self.spec.length:
            raise ValueError(
                f"signature length {signatures.shape[1]} differs from the "
                f"index's spec length {self.spec.length}"
            )
        rows = band_bucket_ids(signatures, self.num_bands, self.config.num_buckets)
        self._write(side, codes, rows)

    def remove(self, codes: Sequence[int], side: str) -> None:
        """Withdraw the band placements of the entities ``codes`` on
        ``side`` (a code never placed is a no-op).  With
        :meth:`add_signatures` this gives the index *delta semantics*:
        the matrices are what a cold build over the current histories
        would produce."""
        self._write(
            side, codes, np.full((len(codes), self.num_bands), -1, dtype=np.int64)
        )

    def _write(self, side: str, codes: Sequence[int], rows: np.ndarray) -> None:
        """The one write: ``side``'s matrix replaced by a copy (grown to
        hold every code) with ``rows`` over the rows of ``codes``, and
        the stats recounted."""
        if side not in _COLUMN:
            raise ValueError(f"side must be left or right, got {side!r}")
        codes = np.asarray(codes, dtype=np.int64)
        matrices = list(self._matrices)
        old = matrices[_COLUMN[side]]
        size = max(len(old), int(codes.max()) + 1 if len(codes) else 0)
        new = np.full((size, self.num_bands), -1, dtype=np.int64)
        new[: len(old)] = old
        new[codes] = rows
        matrices[_COLUMN[side]] = new
        self._matrices = tuple(matrices)
        # Entries per bucket and side, "no bucket" (-1) counted in slot 0.
        left, right = (
            np.bincount(m.ravel() + 1, minlength=self.config.num_buckets + 1)
            for m in self._matrices
        )
        self.stats.buckets_used = int(np.count_nonzero(left[1:] + right[1:]))
        self.stats.hashed_bands_left = self._matrices[0].size - int(left[0])
        self.stats.hashed_bands_right = self._matrices[1].size - int(right[0])

    def update_spec(self, spec: SignatureSpec) -> None:
        """Adopt a spec whose window span grew without changing the
        signature layout (same length, same level — hence same banding).

        Under a fixed windowing origin, growing ``total_windows`` inside
        the same last signature slot cannot change any *unchanged*
        history's dominating cells, so existing placements stay valid;
        only changed histories need re-placing.  A span change that
        alters the slot count requires a fresh index.
        """
        if spec.spatial_level != self.config.spatial_level:
            raise ValueError("signature spec level must match LSH config level")
        if spec.length != self.spec.length:
            raise ValueError(
                "signature length changed "
                f"({self.spec.length} -> {spec.length}); rebuild the index"
            )
        self.spec = spec

    def add_histories(
        self,
        left: Mapping[str, MobilityHistory],
        right: Mapping[str, MobilityHistory],
    ) -> None:
        """Signature and insert every history of both datasets, each side
        coded by sorted-id position (code ``k`` is the ``k``-th smallest
        id), so ascending pair codes read back as id pairs in sorted
        order: one :func:`~repro.lsh.signature.signature_matrix` and one
        :meth:`add_signatures` per side.
        """
        for histories, side in ((left, "left"), (right, "right")):
            ordered = {entity: histories[entity] for entity in sorted(histories)}
            self.add_signatures(
                np.arange(len(ordered)), signature_matrix(ordered, self.spec), side
            )

    # ------------------------------------------------------------------
    # state: captured by reference
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """The index's whole state for :meth:`restore`: spec, both bucket
        matrices and the stats.  O(1): the matrices are replaced, never
        written, so the capture holds them by reference."""
        return {
            "spec": self.spec,
            "matrices": self._matrices,
            "stats": replace(self.stats),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Become the index a :meth:`checkpoint` captured — this index
        rewound, or one made with a different layout (the captured spec
        is adopted)."""
        self.spec = state["spec"]
        self.num_bands = bands_for_threshold(self.spec.length, self.config.threshold)
        self._matrices = tuple(state["matrices"])
        self.stats = replace(state["stats"])

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------
    def candidate_pairs(self) -> np.ndarray:
        """All cross-dataset pairs sharing at least one bucket, as
        ascending int64 pair codes ``left << 32 | right``: one join of
        every placed entry of both sides, which also refreshes the
        ``candidate_pairs`` stat."""
        pairs = distinct(
            _join(*(_entries(m, m.ravel() >= 0) for m in self._matrices))
        )
        self.stats.candidate_pairs = len(pairs)
        return pairs

    def pairs_of(
        self, left_codes: Sequence[int], right_codes: Sequence[int]
    ) -> np.ndarray:
        """The candidate pairs with their left entity in ``left_codes``
        or their right entity in ``right_codes``, as ascending pair
        codes.  Per side: the named rows' buckets are marked, the other
        side's matrix is gathered through the marks, and only the entries
        that hit are joined with the named ones.  Entities not placed have
        no pairs."""
        left, right = self._matrices
        found = []
        for named, own, other, flipped in (
            (left_codes, left, right, False), (right_codes, right, left, True)
        ):
            named = np.asarray(named, dtype=np.int64)
            named = named[named < len(own)]
            rows = own[named]
            buckets, at = _entries(rows, rows.ravel() >= 0)
            marked = np.zeros(self.config.num_buckets + 1, dtype=bool)
            marked[buckets] = True  # -1 gathers the spare last slot
            probed = buckets, named[at]
            hit = _entries(other, marked[other.ravel()])
            found.append(_join(hit, probed) if flipped else _join(probed, hit))
        return distinct(np.concatenate(found))
