"""Unit tests for the banding arithmetic (Lambert W) and band splitting."""

import math

import pytest

from repro.lsh.banding import (
    bands_for_threshold,
    collision_probability,
    implied_threshold,
    split_bands,
)


class TestBandsForThreshold:
    def test_closed_form_matches_definition(self):
        """b = exp(W(-s ln t)) must satisfy t ~ (1/b)^(b/s)."""
        for s, t in ((24, 0.6), (48, 0.5), (100, 0.8), (16, 0.4)):
            b = bands_for_threshold(s, t)
            realised = (1.0 / b) ** (b / s)
            assert realised == pytest.approx(t, abs=0.12)

    def test_newton_root_equals_the_lambert_w_closed_form(self):
        """The band count is the one ``exp(W(-s ln t))`` gives with scipy's
        Lambert W (what this function called before it solved the
        equation itself), over every length and a fine threshold grid."""
        from scipy.special import lambertw

        for s in list(range(1, 130)) + [512, 4096]:
            for k in range(1, 200):
                t = k / 200.0
                closed = math.exp(float(lambertw(-s * math.log(t)).real))
                assert bands_for_threshold(s, t) == max(
                    1, min(s, int(round(closed)))
                ), (s, t)

    def test_lower_threshold_needs_more_bands(self):
        assert bands_for_threshold(48, 0.4) > bands_for_threshold(48, 0.8)

    def test_bounds(self):
        assert 1 <= bands_for_threshold(4, 0.99) <= 4
        assert 1 <= bands_for_threshold(4, 0.01) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            bands_for_threshold(0, 0.5)
        with pytest.raises(ValueError):
            bands_for_threshold(10, 0.0)
        with pytest.raises(ValueError):
            bands_for_threshold(10, 1.0)

    def test_implied_threshold_inverse(self):
        s = 60
        for t in (0.4, 0.6, 0.8):
            b = bands_for_threshold(s, t)
            assert implied_threshold(s, b) == pytest.approx(t, abs=0.1)

    def test_implied_threshold_validation(self):
        with pytest.raises(ValueError):
            implied_threshold(4, 5)
        with pytest.raises(ValueError):
            implied_threshold(4, 0)


class TestCollisionProbability:
    def test_s_curve_endpoints(self):
        assert collision_probability(0.0, 24, 6) == 0.0
        assert collision_probability(1.0, 24, 6) == pytest.approx(1.0)

    def test_monotone_in_similarity(self):
        values = [collision_probability(t / 10, 24, 6) for t in range(11)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_steepest_near_threshold(self):
        """The rise is steepest near t = (1/b)^(1/r)."""
        s, b = 24, 6
        t_star = implied_threshold(s, b)
        low = collision_probability(max(0.0, t_star - 0.25), s, b)
        high = collision_probability(min(1.0, t_star + 0.25), s, b)
        assert high - low > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            collision_probability(1.5, 10, 2)

    def test_zero_bands_rejected(self):
        with pytest.raises(ValueError, match="1 <= bands <= signature length"):
            collision_probability(0.5, 8, 0)

    def test_more_bands_than_slots_rejected(self):
        with pytest.raises(ValueError, match="1 <= bands <= signature length"):
            collision_probability(0.5, 8, 9)


class TestSplitBands:
    def test_band_count_and_coverage(self):
        signature = tuple(range(10))
        bands = split_bands(signature, 3)
        assert len(bands) == 3
        covered = [slot for band in bands for slot, _ in band]
        assert covered == list(range(10))

    def test_uneven_split_puts_extra_in_leading_bands(self):
        bands = split_bands(tuple(range(7)), 3)
        sizes = [len(band) for band in bands]
        assert sizes == [3, 2, 2]

    def test_placeholders_omitted(self):
        bands = split_bands((1, None, 3, None), 2)
        assert bands[0] == ((0, 1),)
        assert bands[1] == ((2, 3),)

    def test_all_placeholder_band_is_none(self):
        bands = split_bands((None, None, 5, 6), 2)
        assert bands[0] is None
        assert bands[1] == ((2, 5), (3, 6))

    def test_slot_positions_prevent_cross_alignment(self):
        """(1, None) and (None, 1) must not produce identical bands."""
        a = split_bands((1, None), 1)
        b = split_bands((None, 1), 1)
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            split_bands((1, 2), 0)
        with pytest.raises(ValueError):
            split_bands((1, 2), 3)

    def test_math_consistency_with_paper_example(self):
        """Sec. 4 example: 12-window history, queries of 3 windows ->
        4 slots, 2 bands of 2 rows."""
        signature = (10, 20, 30, None)
        bands = split_bands(signature, 2)
        assert len(bands) == 2
        assert bands[0] == ((0, 10), (1, 20))
        assert bands[1] == ((2, 30),)
        assert math.isclose(implied_threshold(4, 2), (1 / 2) ** (1 / 2))
