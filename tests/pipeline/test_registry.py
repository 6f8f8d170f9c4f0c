"""Unit tests for the pipeline plugin registries."""

import pytest

from repro.pipeline import (
    LinkageConfig,
    Registry,
    candidate_stages,
    matchers,
    threshold_methods,
)


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")

        @registry.register("square")
        def make_square():
            return "square"

        assert registry.get("square") is make_square
        assert "square" in registry
        assert registry.names() == ["square"]
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("x")(lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x")(lambda: 2)

    def test_duplicate_name_with_replace(self):
        registry = Registry("widget")
        registry.register("x")(lambda: 1)
        replacement = lambda: 2  # noqa: E731
        registry.register("x", replace=True)(replacement)
        assert registry.get("x") is replacement

    def test_unknown_name_error_lists_known(self):
        registry = Registry("widget")
        registry.register("circle")(lambda: 1)
        registry.register("square")(lambda: 2)
        with pytest.raises(KeyError) as excinfo:
            registry.get("triangle")
        message = str(excinfo.value)
        assert "unknown widget 'triangle'" in message
        assert "circle" in message and "square" in message

    def test_empty_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.register("")
        with pytest.raises(ValueError):
            registry.register(None)  # type: ignore[arg-type]

    def test_unregister_is_idempotent(self):
        registry = Registry("widget")
        registry.register("x")(lambda: 1)
        registry.unregister("x")
        registry.unregister("x")
        assert "x" not in registry


class TestBuiltinRegistries:
    def test_builtin_candidate_stages(self):
        assert "brute" in candidate_stages
        assert "lsh" in candidate_stages

    def test_builtin_matchers(self):
        for name in ("greedy", "hungarian"):
            assert name in matchers

    def test_deleted_networkx_matcher_is_refused_by_name(self):
        with pytest.raises(ValueError, match="registered matchers") as excinfo:
            LinkageConfig(matching="networkx")
        assert "hungarian" in str(excinfo.value)

    def test_stlink_matcher_registers_on_import(self):
        import repro.baselines.stlink  # noqa: F401

        assert "stlink" in matchers

    def test_builtin_threshold_methods(self):
        for name in ("gmm", "otsu", "two_means", "none"):
            assert name in threshold_methods

    def test_unknown_candidate_stage_message(self):
        with pytest.raises(KeyError) as excinfo:
            candidate_stages.get("nope")
        assert "brute" in str(excinfo.value)
