"""The LSH index read back by id — shared by the tests that place entities
by name or compare indexes whose codes differ.

:class:`~repro.lsh.index.LshIndex` takes and answers entity codes; a
restored linker codes its entities afresh, so two indexes are the same
state when their placed ids hold the same bucket rows, whatever the
codes.  :class:`Named` drives an index by name, coding ids through its own
:class:`~repro.core.score_cache.EntityTables` (the one-row spellings of
``add_signatures`` / ``remove`` / ``pairs_of``), and the functions read
codes back as ids.  :func:`signatures_to_array` packs tuple signatures
(the Fig. 1 oracle's) into the matrix the index takes.
"""

from __future__ import annotations

import numpy as np

from repro.core.score_cache import EntityTables, split_codes

SIDES = ("left", "right")


def signatures_to_array(signatures):
    """Pack tuple signatures into the ``(N, length)`` uint64 matrix
    :func:`~repro.lsh.signature.signature_matrix` returns.  Placeholder
    (``None``) slots become 0, which no valid cell id can be (every cell
    id has its level-sentinel bit set, so ids are >= 1)."""
    rows = [
        tuple(0 if slot is None else slot for slot in signature)
        for signature in signatures
    ]
    if not rows:
        return np.empty((0, 0), dtype=np.uint64)
    return np.asarray(rows, dtype=np.uint64)


class Named:
    """``index`` driven by entity names, coded through ``entities``."""

    def __init__(self, index, entities=None):
        self.index = index
        self.entities = EntityTables() if entities is None else entities

    def _codes(self, entities, side):
        return self.entities.encode(SIDES.index(side), entities)

    def add(self, entity, signature, side):
        """Place one entity under one tuple signature."""
        self.index.add_signatures(
            self._codes([entity], side), signatures_to_array([signature]), side
        )

    def remove(self, entity, side):
        """Withdraw one entity."""
        self.index.remove(self._codes([entity], side), side)

    def candidate_pairs(self):
        return pair_ids(self.index.candidate_pairs(), self.entities)

    def pairs_of(self, lefts, rights):
        codes = self.entities.codes(lefts, rights)
        return pair_ids(self.index.pairs_of(*codes), self.entities)

    def placements(self):
        return placements(self.index, self.entities)


def pair_ids(codes, entities):
    """Pair codes as a set of ``(left id, right id)``."""
    lefts, rights = split_codes(np.asarray(codes, dtype=np.int64))
    return set(
        zip(entities.ids(0, lefts).tolist(), entities.ids(1, rights).tolist())
    )


def history_pairs(index, left, right):
    """``candidate_pairs()`` of an index that ``add_histories(left,
    right)`` populated (each side coded by sorted-id position), as ids."""
    lefts, rights = split_codes(index.candidate_pairs())
    ids = [np.array(sorted(side), dtype=object) for side in (left, right)]
    return set(zip(ids[0][lefts].tolist(), ids[1][rights].tolist()))


def placements(index, entities):
    """``{(side, id): bucket row}`` of every placed entity."""
    found = {}
    for column, (side, matrix) in enumerate(zip(SIDES, index._matrices)):
        codes = np.flatnonzero((matrix >= 0).any(axis=1))
        for entity, row in zip(entities.ids(column, codes), matrix[codes].tolist()):
            found[(side, entity)] = tuple(row)
    return found


def state(index, entities):
    """Everything an index is, by id: spec, bands, stats and placements."""
    return (index.spec, index.num_bands, index.stats, placements(index, entities))
