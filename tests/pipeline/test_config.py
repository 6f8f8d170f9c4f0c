"""LinkageConfig construction, validation and serialization round-trips."""

import json

import pytest

from repro.core.similarity import SimilarityConfig
from repro.lsh import LshConfig
from repro.pipeline import LinkageConfig, LinkagePipeline


class TestValidation:
    def test_defaults(self):
        config = LinkageConfig()
        assert config.matching == "greedy"
        assert config.threshold == "gmm"
        assert config.resolved_candidates() == "brute"

    def test_auto_candidates_resolve_to_lsh(self):
        config = LinkageConfig(lsh=LshConfig())
        assert config.resolved_candidates() == "lsh"

    def test_explicit_candidates_win(self):
        config = LinkageConfig(lsh=LshConfig(), candidates="brute")
        assert config.resolved_candidates() == "brute"

    def test_unknown_matcher_rejected(self):
        with pytest.raises(ValueError, match="unknown matcher"):
            LinkageConfig(matching="magic")

    def test_unknown_threshold_rejected(self):
        with pytest.raises(ValueError, match="unknown threshold method"):
            LinkageConfig(threshold="coin_flip")

    def test_unknown_candidate_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown candidate stage"):
            LinkageConfig(candidates="psychic")

    def test_storage_level_covers_lsh(self):
        config = LinkageConfig(lsh=LshConfig(spatial_level=16))
        assert config.resolved_storage_level() == 16
        assert LinkageConfig(storage_level=20).resolved_storage_level() == 20


class TestRoundTrip:
    def test_default_round_trip(self):
        config = LinkageConfig()
        assert LinkageConfig.from_dict(config.to_dict()) == config

    def test_lsh_none_round_trip(self):
        config = LinkageConfig(lsh=None, threshold="otsu")
        data = config.to_dict()
        assert data["lsh"] is None
        assert LinkageConfig.from_dict(data) == config

    def test_full_round_trip_through_json(self):
        config = LinkageConfig(
            similarity=SimilarityConfig(
                window_width_minutes=30.0, spatial_level=10, backend="python"
            ),
            lsh=LshConfig(threshold=0.4, step_windows=8, num_buckets=512,
                          spatial_level=14),
            matching="hungarian",
            threshold="two_means",
            storage_level=15,
        )
        rebuilt = LinkageConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_unknown_top_level_field_names_key(self):
        with pytest.raises(ValueError, match="'matchign'"):
            LinkageConfig.from_dict({"matchign": "greedy"})

    def test_unknown_similarity_field_names_key(self):
        with pytest.raises(ValueError, match="'window_minutes'"):
            LinkageConfig.from_dict({"similarity": {"window_minutes": 5}})

    def test_unknown_lsh_field_names_key(self):
        with pytest.raises(ValueError, match="'bands'"):
            LinkageConfig.from_dict({"lsh": {"bands": 4}})

    def test_wrong_typed_similarity_rejected(self):
        with pytest.raises(ValueError, match="'similarity' must be a mapping"):
            LinkageConfig.from_dict({"similarity": 5})

    def test_wrong_typed_lsh_rejected(self):
        with pytest.raises(ValueError, match="'lsh' must be null or a mapping"):
            LinkageConfig.from_dict({"lsh": "yes"})

    def test_wrong_typed_storage_level_rejected(self):
        with pytest.raises(ValueError, match="'storage_level'"):
            LinkageConfig.from_dict({"storage_level": "12"})

    def test_wrong_typed_stage_name_rejected(self):
        with pytest.raises(ValueError, match="'matching'"):
            LinkageConfig.from_dict({"matching": 3})

    def test_without(self):
        config = LinkageConfig().without(threshold="none")
        assert config.threshold == "none"
        assert config.matching == "greedy"


class TestRoundTripLinks:
    def test_round_tripped_config_reproduces_links(self, cab_pair):
        """Acceptance: from_dict(to_dict()) produces identical links on
        the default synthetic workload."""
        config = LinkageConfig()
        rebuilt = LinkageConfig.from_dict(config.to_dict())
        original = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
        replayed = LinkagePipeline(rebuilt).run(cab_pair.left, cab_pair.right)
        assert original.links == replayed.links
        assert original.link_scores == replayed.link_scores
