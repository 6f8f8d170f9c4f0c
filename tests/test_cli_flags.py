"""The config-backed ``slim-link`` flags, table-driven.

Every flag is generated from a config dataclass field (``repro.knobs``),
so one table covers them all: each row is checked for "absent keeps the
default", "typed sets the field", "typed over a ``--config`` file wins
while the file's other values survive" and "``--help`` shows it".  The
table is also the frozen list of flag spellings — a rename or a new flag
is a visible diff here.

The resolved configs of every pre-existing CLI test argv are pinned
against literals captured from the hand-written parser this replaced.
"""

import argparse
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _serve_parser, build_parser, config_from_args, main
from repro.core.retention import retention_policies
from repro.core.similarity import BACKENDS, PAIRINGS, SimilarityConfig
from repro.exec import executors
from repro.knobs import add_flags, apply_flags, flags, knob
from repro.lsh import LshConfig
from repro.pipeline import LinkageConfig, matchers, threshold_methods
from repro.pipeline.config import SERVE_BACKPRESSURE_POLICIES

ROOT = Path(__file__).resolve().parents[1]

# (flag, section.field, typed value, resulting field value, companion argv
# the typed value needs to be a valid config on its own)
TABLE = [
    ("--window-minutes", "similarity.window_width_minutes", "30", 30.0, []),
    ("--spatial-level", "similarity.spatial_level", "10", 10, []),
    ("--max-speed-kmh", "similarity.max_speed_mps", "60", 60 / 3.6, []),
    ("--b", "similarity.b", "0.8", 0.8, []),
    ("--backend", "similarity.backend", "python", "python", []),
    ("--lsh", "lsh", None, LshConfig(), []),
    ("--lsh-threshold", "lsh.threshold", "0.4", 0.4, ["--lsh"]),
    ("--lsh-step-windows", "lsh.step_windows", "8", 8, ["--lsh"]),
    ("--lsh-spatial-level", "lsh.spatial_level", "14", 14, ["--lsh"]),
    ("--lsh-buckets", "lsh.num_buckets", "256", 256, ["--lsh"]),
    ("--matching", "matching", "hungarian", "hungarian", []),
    ("--threshold-method", "threshold", "otsu", "otsu", []),
    ("--executor", "executor", "process", "process", []),
    ("--workers", "workers", "4", 4, []),
    ("--retention", "retention", "max_entities", "max_entities",
     ["--retention-window", "96"]),
    ("--retention-window", "retention_window", "96", 96, []),
    ("--score-block-size", "score_block_size", "512", 512, []),
    ("--timeout", "timeout", "1.5", 1.5, []),
    ("--retries", "retries", "4", 4, []),
    ("--serve-queue-depth", "serve_queue_depth", "32", 32, []),
    ("--serve-backpressure", "serve_backpressure", "reject", "reject", []),
]
ROWS = [pytest.param(*row, id=row[0]) for row in TABLE]

#: A config file in which no flag-backed field holds the table's typed
#: value (nor, where it has more than two values, the default).
FILE_CONFIG = LinkageConfig(
    similarity=SimilarityConfig(
        window_width_minutes=45.0, spatial_level=9, max_speed_mps=20.0, b=0.3,
        backend="numpy", use_mfn=False,
    ),
    lsh=LshConfig(threshold=0.3, step_windows=4, spatial_level=13, num_buckets=512),
    candidates="temporal",
    matching="greedy",
    threshold="two_means",
    executor="thread",
    workers=3,
    retention="sliding_window",
    retention_window=50,
    score_block_size=128,
    timeout=9.0,
    retries=5,
    serve_queue_depth=7,
    serve_backpressure="block",
)


def _resolve(flag_argv, file_data=None, tmp_path=None):
    argv = ["l.csv", "r.csv", *flag_argv]
    if file_data is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(file_data))
        argv += ["--config", str(path)]
    return config_from_args(build_parser().parse_args(argv))


def _get(config, dotted):
    for name in dotted.split("."):
        config = getattr(config, name, None)  # None: the section is off
    return config


def _with(config, dotted, value):
    head, _, rest = dotted.partition(".")
    if rest:
        value = _with(getattr(config, head), rest, value)
    return replace(config, **{head: value})


def _typed(flag, value):
    return [flag] if value is None else [flag, value]


class TestGeneratedFlags:
    def test_flag_set_is_frozen(self):
        generated = [(f.spelling, ".".join(f.path)) for f in flags(LinkageConfig)]
        assert generated == [(row[0], row[1]) for row in TABLE]

    def test_no_flags_is_the_default_config(self):
        assert _resolve([]) == LinkageConfig()
        assert _resolve(["--lsh"]) == LinkageConfig(lsh=LshConfig())

    @pytest.mark.parametrize("flag, field, value, expected, companions", ROWS)
    def test_absent_flag_leaves_no_trace(
        self, flag, field, value, expected, companions
    ):
        args = build_parser().parse_args(["l.csv", "r.csv"])
        dest = flag.lstrip("-").replace("-", "_")
        assert dest not in vars(args)
        assert _get(config_from_args(args), field) == _get(LinkageConfig(), field)

    @pytest.mark.parametrize("flag, field, value, expected, companions", ROWS)
    def test_typed_flag_sets_the_field(
        self, flag, field, value, expected, companions
    ):
        config = _resolve([*companions, *_typed(flag, value)])
        assert _get(config, field) == expected
        assert _get(config, field) != _get(LinkageConfig(), field)

    @pytest.mark.parametrize("flag, field, value, expected, companions", ROWS)
    def test_typed_flag_wins_over_the_file_and_nothing_else_moves(
        self, flag, field, value, expected, companions, tmp_path
    ):
        if flag == "--lsh":  # the switch leaves an existing section alone
            expected = FILE_CONFIG.lsh
        config = _resolve(_typed(flag, value), FILE_CONFIG.to_dict(), tmp_path)
        assert config == _with(FILE_CONFIG, field, expected)
        assert _resolve([], FILE_CONFIG.to_dict(), tmp_path) == FILE_CONFIG

    @pytest.mark.parametrize("flag, field, value, expected, companions", ROWS)
    def test_help_shows_the_flag(self, flag, field, value, expected, companions):
        assert re.search(rf"^  {flag}\b", build_parser().format_help(), re.M)

    def test_no_flag_carries_a_literal_default_or_choices(self):
        """Registry-backed choices are the live registry; defaults are
        suppressed, so presence in the namespace means "typed"."""
        parser = build_parser()
        dests = {flag.dest for flag in flags(LinkageConfig)}
        for action in parser._actions:
            if action.dest in dests:
                assert action.default is argparse.SUPPRESS
        choices = {
            action.option_strings[0]: action.choices for action in parser._actions
            if action.dest in dests and action.choices is not None
        }
        assert choices == {
            "--backend": list(BACKENDS),
            "--matching": matchers.names(),
            "--threshold-method": threshold_methods.names(),
            "--executor": ["auto", *executors.names()],
            "--retention": retention_policies.names(),
            "--serve-backpressure": list(SERVE_BACKPRESSURE_POLICIES),
        }


# ----------------------------------------------------------------------
# behaviour kept: literals captured from the hand-written parent parser
# ----------------------------------------------------------------------
PARENT_DEFAULT_JSON = (
    '{"similarity": {"window_width_minutes": 15.0, "spatial_level": 12, '
    '"max_speed_mps": 33.333333333333336, "b": 0.5, "pairing": "mnn", '
    '"use_mfn": true, "use_idf": true, "use_normalization": true, '
    '"alibi_eps": 1e-06, "backend": "numpy"}, '
    '"lsh": null, "candidates": "auto", "matching": "greedy", '
    '"threshold": "gmm", "storage_level": null, "executor": "auto", '
    '"workers": 0, "retention": "none", "retention_window": 0, '
    '"score_block_size": 0, "timeout": 0.0, "retries": 2, '
    '"serve_queue_depth": 1024, "serve_backpressure": "block"}'
)
PARENT_LSH_JSON = (
    '{"threshold": 0.6, "step_windows": 16, "spatial_level": 16, '
    '"num_buckets": 4096}'
)
EXAMPLE = "examples/slim_link_config.json"

# (config flags typed, --config file contents, the parent's resolved
# config as overrides of PARENT_DEFAULT_JSON) — one row per argv the
# pre-existing CLI tests used, plus the bundled example config.
PARENT_CASES = [
    ([], None, {}),
    (["--lsh", "--lsh-threshold", "0.4", "--lsh-buckets", "256"], None,
     {"lsh": {"threshold": 0.4, "step_windows": 16, "spatial_level": 16,
              "num_buckets": 256}}),
    (["--lsh", "--lsh-step-windows", "8"], None,
     {"lsh": {"threshold": 0.6, "step_windows": 8, "spatial_level": 16,
              "num_buckets": 4096}}),
    (["--lsh"], None,
     {"lsh": {"threshold": 0.6, "step_windows": 16, "spatial_level": 16,
              "num_buckets": 4096}}),
    ([], {"threshold": "otsu", "matching": "hungarian"},
     {"matching": "hungarian", "threshold": "otsu"}),
    (["--threshold-method", "none"], {"threshold": "otsu", "matching": "hungarian"},
     {"matching": "hungarian", "threshold": "none"}),
    ([], {"similarity": {"window_width_minutes": 30.0}},
     {"similarity.window_width_minutes": 30.0}),
    (["--lsh", "--lsh-threshold", "0.4"], {"lsh": None},
     {"lsh": {"threshold": 0.4, "step_windows": 16, "spatial_level": 16,
              "num_buckets": 4096}}),
    ([], {"threshold": "none"}, {"threshold": "none"}),
    (["--threshold-method", "gmm"], None, {}),
    (["--threshold-method", "otsu"], None, {"threshold": "otsu"}),
    (["--threshold-method", "two_means"], None, {"threshold": "two_means"}),
    (["--threshold-method", "none"], None, {"threshold": "none"}),
    (["--matching", "greedy"], None, {}),
    (["--matching", "hungarian"], None, {"matching": "hungarian"}),
    (["--window-minutes", "30", "--spatial-level", "10"], None,
     {"similarity.window_width_minutes": 30.0, "similarity.spatial_level": 10}),
    (["--max-speed-kmh", "60", "--b", "0.8"], None,
     {"similarity.max_speed_mps": 16.666666666666668, "similarity.b": 0.8}),
    (["--retention", "sliding_window", "--retention-window", "96",
      "--score-block-size", "512"], None,
     {"retention": "sliding_window", "retention_window": 96,
      "score_block_size": 512}),
    (["--score-block-size", "64"], None, {"score_block_size": 64}),
    (["--timeout", "1.5", "--retries", "4"], None, {"timeout": 1.5, "retries": 4}),
    ([], {"timeout": 2.0, "retries": 7}, {"timeout": 2.0, "retries": 7}),
    (["--timeout", "30", "--retries", "3"], None, {"timeout": 30.0, "retries": 3}),
    (["--executor", "serial", "--workers", "2"], None,
     {"executor": "serial", "workers": 2}),
    (["--executor", "thread", "--workers", "2"], None,
     {"executor": "thread", "workers": 2}),
    (["--executor", "process", "--workers", "4"], None,
     {"executor": "process", "workers": 4}),
    (["--executor", "serial"], {"executor": "thread"}, {"executor": "serial"}),
    ([], {"executor": "thread"}, {"executor": "thread"}),
    (["--serve-queue-depth", "32", "--serve-backpressure", "reject"], None,
     {"serve_queue_depth": 32, "serve_backpressure": "reject"}),
    ([], {"serve_queue_depth": 16, "serve_backpressure": "block"},
     {"serve_queue_depth": 16}),
    (["--serve-queue-depth", "32"],
     {"serve_queue_depth": 64, "serve_backpressure": "reject"},
     {"serve_queue_depth": 32, "serve_backpressure": "reject"}),
    (["--backend", "python"], None, {"similarity.backend": "python"}),
    ([], EXAMPLE, {"candidates": "temporal"}),
    (["--lsh", "--lsh-spatial-level", "14", "--serve-queue-depth", "8"], EXAMPLE,
     {"lsh": {"threshold": 0.6, "step_windows": 16, "spatial_level": 14,
              "num_buckets": 4096},
      "candidates": "temporal", "serve_queue_depth": 8}),
]


def parent_expected(overrides):
    """``PARENT_DEFAULT_JSON`` with a case's dotted overrides applied."""
    expected = json.loads(PARENT_DEFAULT_JSON)
    for dotted, value in overrides.items():
        head, _, rest = dotted.partition(".")
        if rest:
            expected[head][rest] = value
        else:
            expected[head] = value
    return expected


class TestBehaviourKept:
    def test_to_dict_is_byte_identical_json(self):
        assert json.dumps(LinkageConfig().to_dict()) == PARENT_DEFAULT_JSON
        with_lsh = json.dumps(LinkageConfig(lsh=LshConfig()).to_dict())
        assert with_lsh == PARENT_DEFAULT_JSON.replace(
            '"lsh": null', f'"lsh": {PARENT_LSH_JSON}'
        )

    @pytest.mark.parametrize("flag_argv, file_data, overrides", PARENT_CASES)
    def test_resolved_config_equals_the_parents(
        self, flag_argv, file_data, overrides, tmp_path
    ):
        if file_data == EXAMPLE:
            file_data = json.loads((ROOT / EXAMPLE).read_text())
        config = _resolve(flag_argv, file_data, tmp_path)
        assert config.to_dict() == parent_expected(overrides)


# ----------------------------------------------------------------------
# serialisation round-trip over generated valid configs
# ----------------------------------------------------------------------
def _finite(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


SIMILARITY = st.builds(
    SimilarityConfig,
    window_width_minutes=_finite(min_value=0.5, max_value=1e4),
    spatial_level=st.integers(0, 30),
    max_speed_mps=_finite(min_value=0.1, max_value=1e3),
    b=_finite(min_value=0, max_value=1),
    pairing=st.sampled_from(PAIRINGS),
    use_mfn=st.booleans(),
    use_idf=st.booleans(),
    use_normalization=st.booleans(),
    alibi_eps=_finite(min_value=1e-9, max_value=0.5),
    backend=st.sampled_from(BACKENDS),
)
LSH = st.builds(
    LshConfig,
    threshold=_finite(min_value=0.01, max_value=0.99),
    step_windows=st.integers(1, 500),
    spatial_level=st.integers(0, 30),
    num_buckets=st.integers(1, 1 << 20),
)
LINKAGE = st.builds(
    LinkageConfig,
    similarity=SIMILARITY,
    lsh=st.none() | LSH,
    candidates=st.sampled_from(["auto", "brute", "lsh", "temporal"]),
    matching=st.sampled_from(["greedy", "hungarian"]),
    threshold=st.sampled_from(["gmm", "otsu", "two_means", "none"]),
    storage_level=st.none() | st.integers(0, 30),
    executor=st.sampled_from(["auto", "serial", "thread", "process"]),
    workers=st.integers(0, 64),
    retention=st.sampled_from(["sliding_window", "max_entities"]),
    retention_window=st.integers(1, 10_000),
    score_block_size=st.integers(0, 1 << 16),
    timeout=_finite(min_value=0, max_value=1e6),
    retries=st.integers(0, 20),
    serve_queue_depth=st.integers(1, 1 << 16),
    serve_backpressure=st.sampled_from(SERVE_BACKPRESSURE_POLICIES),
)


@settings(max_examples=60, deadline=None)
@given(LINKAGE)
def test_round_trip_through_json(config):
    assert LinkageConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


# ----------------------------------------------------------------------
# one declaration per knob, counted
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Extended(LinkageConfig):
    """``LinkageConfig`` plus one hypothetical knob — the only edit."""

    hops: int = knob(7, "a hypothetical knob", flag="--hops", ge=1)


class TestOneEditPerKnob:
    def _parse(self, argv):
        parser = argparse.ArgumentParser()
        add_flags(parser, Extended)
        return parser, parser.parse_args(argv)

    def test_it_serialises_and_round_trips(self):
        assert Extended().to_dict()["hops"] == 7
        assert Extended.from_dict(Extended(hops=9).to_dict()) == Extended(hops=9)

    def test_its_type_and_range_are_validated(self):
        with pytest.raises(ValueError, match="'hops' must be an integer, got str"):
            Extended.from_dict({"hops": "9"})
        with pytest.raises(ValueError, match="'hops' must be >= 1, got 0"):
            Extended(hops=0)

    def test_it_is_a_flag_with_the_right_default(self):
        parser, args = self._parse([])
        assert re.search(r"--hops HOPS\s+a hypothetical knob \(default: 7\)",
                         parser.format_help())
        assert apply_flags(Extended(), args) == Extended()

    def test_the_flag_overrides_a_config_file_value(self):
        base = Extended.from_dict({"hops": 3, "retries": 5})
        _, args = self._parse(["--hops", "9"])
        assert apply_flags(base, args) == Extended(hops=9, retries=5)
        _, args = self._parse([])
        assert apply_flags(base, args) == base


# ----------------------------------------------------------------------
# the drifted copies, as bugs (each failed before the derivation)
# ----------------------------------------------------------------------
@pytest.fixture
def csvs():
    data = ROOT / "examples" / "data"
    return str(data / "left.csv"), str(data / "right.csv")


WRONG_TYPED = [
    ({"similarity": {"b": "0.5"}}, "'similarity.b' must be a number, got str"),
    ({"similarity": {"use_mfn": "no"}},
     "'similarity.use_mfn' must be true or false, got str"),
    ({"lsh": {"num_buckets": 4096.5}},
     "'lsh.num_buckets' must be an integer, got float"),
    ({"similarity": None}, "'similarity' must be a mapping of SimilarityConfig"),
    ({"storage_level": 1.5}, "'storage_level' must be null or an integer, got float"),
]


class TestNestedTypeChecks:
    @pytest.mark.parametrize("data, message", WRONG_TYPED)
    def test_from_dict_names_section_field_and_types(self, data, message):
        with pytest.raises(ValueError, match=message):
            LinkageConfig.from_dict(data)

    @pytest.mark.parametrize("data, message", WRONG_TYPED)
    def test_cli_reports_it_as_invalid_configuration(
        self, data, message, csvs, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([*csvs, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert message in err

    def test_config_that_is_not_an_object(self, csvs, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main([*csvs, "--config", str(path)]) == 2
        assert "must be a mapping" in capsys.readouterr().err


REGISTRY_FLAGS = [
    (matchers, "--matching", "matching", []),
    (threshold_methods, "--threshold-method", "threshold", []),
    (retention_policies, "--retention", "retention", ["--retention-window", "5"]),
    (executors, "--executor", "executor", []),
]


class TestChoicesAreTheLiveRegistries:
    @pytest.mark.parametrize("registry, flag, field, companions", REGISTRY_FLAGS)
    def test_a_registered_plugin_is_reachable_from_the_cli(
        self, registry, flag, field, companions
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["l.csv", "r.csv", flag, "throwaway"])
        registry.register("throwaway")(object())
        try:
            config = _resolve([flag, "throwaway", *companions])
        finally:
            registry.unregister("throwaway")
        assert getattr(config, field) == "throwaway"

    def test_unregistered_names_are_a_usage_error(self, capsys):
        for flag in ("--matching", "--serve-backpressure"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["l.csv", "r.csv", flag, "magic"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: invalid choice: 'magic'" in err


class TestLshFlagsNeedTheSection:
    @pytest.mark.parametrize("flag, value", [row[0:3:2] for row in TABLE[6:10]])
    def test_without_lsh_is_a_named_error(self, flag, value, csvs, capsys):
        assert main([*csvs, flag, value]) == 2
        err = capsys.readouterr().err
        assert f'{flag} needs --lsh or a config with the "lsh" section' in err

    def test_a_null_section_in_the_file_does_not_count(self, csvs, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"lsh": null}')
        assert main([*csvs, "--config", str(path), "--lsh-threshold", "0.4"]) == 2
        assert "--lsh-threshold needs --lsh" in capsys.readouterr().err

    def test_a_section_in_the_file_is_enough(self, tmp_path):
        config = _resolve(["--lsh-threshold", "0.4"], {"lsh": {"num_buckets": 64}},
                          tmp_path)
        assert config.lsh == LshConfig(threshold=0.4, num_buckets=64)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "field, value",
        [("timeout", math.nan), ("timeout", math.inf)],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' must be a finite number"):
            LinkageConfig(**{field: value})
        with pytest.raises(ValueError, match="finite"):
            SimilarityConfig(window_width_minutes=math.inf)
        with pytest.raises(ValueError, match="'b' must be"):
            SimilarityConfig(b=math.nan)

    def test_rejected_from_the_cli(self, csvs, capsys):
        assert main([*csvs, "--timeout", "nan"]) == 2
        assert "'timeout' must be a finite number" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the README's option table is checked, not trusted
# ----------------------------------------------------------------------
def test_readme_option_table_matches_the_parsers():
    defined = {
        option
        for parser in (build_parser(), _serve_parser())
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    rows = re.findall(r"^\| (`--.*?) \| ", (ROOT / "README.md").read_text(), re.M)
    documented = {flag for row in rows for flag in re.findall(r"--[a-z-]+", row)}
    assert documented == defined
