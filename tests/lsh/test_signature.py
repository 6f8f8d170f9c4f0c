"""Unit tests for dominating-cell signatures."""

import numpy as np
import pytest
from fig1_oracle import build_signature

from repro.core.history import MobilityHistory
from repro.geo import CellId
from repro.lsh.signature import SignatureSpec, signature_similarity
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)


def _history(rows, level=16, entity="e"):
    array = np.asarray(rows, dtype=np.float64)
    return MobilityHistory.from_columns(
        entity, array[:, 0], array[:, 1], array[:, 2], WINDOWING, level
    )


class TestSignatureSpec:
    def test_length_rounds_up(self):
        spec = SignatureSpec(0, 10, 3, 14)
        assert spec.length == 4

    def test_exact_division(self):
        assert SignatureSpec(0, 12, 3, 14).length == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SignatureSpec(0, 10, 0, 14)
        with pytest.raises(ValueError):
            SignatureSpec(0, 0, 1, 14)
        with pytest.raises(ValueError):
            SignatureSpec(0, 10, 2, 31)


class TestBuildSignature:
    def test_placeholder_for_silent_windows(self):
        history = _history([(0.0, 37.77, -122.42)])
        spec = SignatureSpec(0, 8, 2, 14)
        signature = build_signature(history, spec)
        assert len(signature) == 4
        assert signature[0] is not None
        assert signature[1] is None and signature[2] is None and signature[3] is None

    def test_dominating_cell_majority(self):
        # 2 records in SF cell, 1 in a distant cell, same query step.
        history = _history(
            [(0.0, 37.77, -122.42), (950.0, 37.77, -122.42), (1000.0, 37.90, -122.10)]
        )
        spec = SignatureSpec(0, 4, 4, 14)
        signature = build_signature(history, spec)
        assert signature[0] == CellId.from_degrees(37.77, -122.42, 14).id

    def test_signature_level_independent_of_storage(self):
        history = _history([(0.0, 37.77, -122.42)], level=18)
        spec = SignatureSpec(0, 2, 2, 10)
        signature = build_signature(history, spec)
        assert CellId(signature[0]).level() == 10

    def test_deterministic(self):
        history = _history([(0.0, 37.77, -122.42), (100.0, 37.78, -122.41)])
        spec = SignatureSpec(0, 4, 2, 14)
        assert build_signature(history, spec) == build_signature(history, spec)

    def test_same_query_same_slot_across_entities(self):
        """Structural alignment: slot k of every signature covers the same
        leaf windows."""
        h1 = _history([(0.0, 37.77, -122.42)], entity="a")
        h2 = _history([(7_200.0, 40.71, -74.0)], entity="b")
        spec = SignatureSpec(0, 16, 4, 14)
        s1 = build_signature(h1, spec)
        s2 = build_signature(h2, spec)
        assert len(s1) == len(s2) == 4
        assert s1[0] is not None and s2[0] is None
        assert s1[2] is None and s2[2] is not None


class TestSignatureSimilarity:
    def test_identical_signatures(self):
        signature = (1, 2, 3, 4)
        assert signature_similarity(signature, signature) == 1.0

    def test_placeholders_never_match(self):
        assert signature_similarity((None, None), (None, None)) == 0.0

    def test_partial_match(self):
        assert signature_similarity((1, 2, 3, 4), (1, 2, 9, None)) == 0.5

    def test_divided_by_full_length(self):
        # One matching slot out of four, even though only two are populated.
        assert signature_similarity((1, None, None, None), (1, None, None, 5)) == 0.25

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            signature_similarity((1,), (1, 2))

    def test_empty_signatures(self):
        assert signature_similarity((), ()) == 0.0
