"""``slim-link``: link two CSV mobility datasets from the command line.

Example::

    slim-link left.csv right.csv --window-minutes 15 --spatial-level 12 \
        --lsh --lsh-threshold 0.6 --output links.csv

A full pipeline configuration can also be loaded from a serialized
:class:`~repro.pipeline.config.LinkageConfig` (see its ``to_dict``)::

    slim-link left.csv right.csv --config run.json --threshold-method otsu

Explicit command-line flags override the file's values; unknown fields in
the file fail fast, naming the offending key.

``--executor process --workers 4`` shards the scoring stage across four
worker processes (identical links/scores, see :mod:`repro.exec`);
``--score-cache scores`` persists pair scores (a small snapshot directory)
so repeated runs over the same data warm-start instead of re-scoring.

Input CSVs need columns ``entity,lat,lng,timestamp`` (POSIX seconds or
ISO 8601).  The output lists one link per line with its similarity score
and whether it passed the automated stop threshold.

Instead of two CSVs, ``--scenario NAME`` runs a named adversarial
scenario from the zoo (:mod:`repro.scenarios`) — the pair is generated
deterministically from ``--scenario-seed`` / ``--scenario-scale`` and the
run is additionally scored against the scenario's held-out ground truth
(printed to stderr).  ``--list-scenarios`` enumerates the zoo::

    slim-link --scenario gps_jitter_burst --scenario-seed 7 --lsh

``slim-link serve`` runs the *online* serving loop instead of one batch
run: the same inputs (two CSVs or a scenario) are replayed as a
time-ordered event stream through :class:`repro.serve.LinkageService` —
bounded ingest queue, continuous relinks, versioned snapshots — and the
per-round serving counters are printed as a table.  The ``--serve-*``
knobs (queue depth, backpressure policy) ride on the same serialized
:class:`~repro.pipeline.config.LinkageConfig` as every other flag::

    slim-link serve --scenario bursty_arrival --rounds 6 \\
        --serve-queue-depth 128 --serve-backpressure reject
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .core.score_cache import ScoreCache
from .data.io import load_csv
from .knobs import add_flags, apply_flags
from .pipeline import LinkageConfig, LinkagePipeline
from .store.snapshot import SnapshotError, SnapshotMissing

__all__ = ["main", "build_parser", "config_from_args"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="slim-link",
        description="Link entities across two mobility datasets (SLIM, SIGMOD 2020).",
    )
    parser.add_argument(
        "left", nargs="?", help="CSV of the first dataset (omit with --scenario)"
    )
    parser.add_argument(
        "right", nargs="?", help="CSV of the second dataset (omit with --scenario)"
    )
    parser.add_argument(
        "--scenario",
        help="run a named scenario from the scenario zoo instead of two "
        "CSVs; the pair is generated deterministically and scored against "
        "its held-out ground truth (see --list-scenarios)",
    )
    parser.add_argument(
        "--scenario-seed",
        type=int,
        default=None,
        help="seed for --scenario (default: the scenario's default seed)",
    )
    parser.add_argument(
        "--scenario-scale",
        type=float,
        default=1.0,
        help="world-size multiplier for --scenario (default: 1.0)",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered scenarios and exit",
    )
    parser.add_argument(
        "--config",
        help="JSON file holding a serialized LinkageConfig "
        "(explicit flags override its values)",
    )
    # One flag per LinkageConfig / SimilarityConfig / LshConfig field that
    # declares one (repro.knobs): spelling, type, help and default come
    # from the field, choices from the live registries.
    add_flags(parser, LinkageConfig)
    parser.add_argument(
        "--score-cache",
        help="persist pair scores under this path (a snapshot directory) "
        "and warm-start from it on repeated runs (created when missing; an "
        "untrustworthy one is named in a warning and replaced; see "
        "ScoreCache.save)",
    )
    parser.add_argument(
        "--snapshot-dir",
        help="run the linkage as a resumable streaming relink: restore the "
        "linker from the newest snapshot in this directory (cold start if "
        "none), fold the inputs in, relink, and checkpoint back — repeated "
        "runs accumulate state instead of starting over (subsumes "
        "--score-cache: the snapshot persists the score cache)",
    )
    parser.add_argument(
        "--all-matches",
        action="store_true",
        help="also print matched pairs below the stop threshold",
    )
    parser.add_argument(
        "--output",
        help="write links to this CSV instead of stdout",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> LinkageConfig:
    """Resolve the effective :class:`LinkageConfig`: the ``--config`` file
    (else the defaults) is the base, and every config flag present in the
    namespace — the parser suppresses defaults, so present means typed —
    overrides it."""
    if args.config:
        base = LinkageConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        base = LinkageConfig()
    return apply_flags(base, args)


def _load_config(args: argparse.Namespace) -> Optional[LinkageConfig]:
    """The run's config, or ``None`` after printing why it is invalid."""
    try:
        return config_from_args(args)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        message = error.args[0] if error.args else error
        print(f"error: invalid configuration: {message}", file=sys.stderr)
    except OSError as error:
        print(f"error: cannot read config: {error}", file=sys.stderr)
    return None


def _inputs_problem(args: argparse.Namespace) -> Optional[str]:
    """Why the positional CSVs and ``--scenario`` do not add up, if so."""
    if args.scenario and (args.left or args.right):
        return "--scenario replaces the left/right CSV arguments"
    if not args.scenario and not (args.left and args.right):
        return (
            "need two CSV paths, or --scenario NAME "
            "(--list-scenarios shows the zoo)"
        )
    return None


def _load_inputs(args: argparse.Namespace):
    """``(left, right, truth)``, or ``None`` after printing the error."""
    if not args.scenario:
        return load_csv(args.left), load_csv(args.right), None
    from .scenarios import scenario_pair

    try:
        pair = scenario_pair(
            args.scenario, seed=args.scenario_seed, scale=args.scenario_scale
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return None
    return pair.left, pair.right, pair.ground_truth


def _link_rows(link_scores) -> List[str]:
    """One ``left,right,score,1`` row per link, sorted by pair."""
    return [
        f"{left_id},{right_id},{score:.6f},1"
        for (left_id, right_id), score in sorted(link_scores.items())
    ]


def _write_rows(args: argparse.Namespace, rows: List[str]) -> None:
    """The links CSV, to ``--output`` or stdout."""
    body = "\n".join(["left,right,score,linked", *rows])
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(body + "\n")
    else:
        print(body)


def _print_quality(args: argparse.Namespace, links, ground_truth) -> None:
    """``--scenario`` runs: score the links against the held-out truth."""
    if ground_truth is None:
        return
    from .eval.metrics import precision_recall_f1

    quality = precision_recall_f1(links, ground_truth)
    print(
        f"# scenario {args.scenario}: precision {quality.precision:.4f} "
        f"recall {quality.recall:.4f} f1 {quality.f1:.4f} "
        f"({len(ground_truth)} true links)",
        file=sys.stderr,
    )


def _serve_parser() -> argparse.ArgumentParser:
    """The ``slim-link serve`` parser: every batch flag plus the replay
    knobs (the ``--serve-*`` flags already live on the shared parser)."""
    parser = build_parser()
    parser.prog = "slim-link serve"
    parser.description = (
        "Replay two mobility datasets as a time-ordered event stream "
        "through the online serving loop (bounded ingest queue, continuous "
        "relinks, versioned snapshots) and report the serving counters."
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=4,
        help="number of time slices the event stream is replayed in "
        "(default: 4)",
    )
    parser.add_argument(
        "--queries-per-round",
        type=int,
        default=32,
        help="links_for queries issued against the published snapshot "
        "after each round (default: 32)",
    )
    parser.add_argument(
        "--serve-state-dir",
        help="serving: restore the linker from the newest snapshot in this "
        "directory plus its event log on start (cold start if none) and "
        "persist every applied batch (a log append, or a snapshot when one "
        "is due), so a killed service resumes from its last persisted batch",
    )
    return parser


def _serve_main(argv: List[str]) -> int:
    """``slim-link serve``: the online serving front door."""
    import asyncio

    from .eval.reporting import serving_table
    from .serve import replay_pair

    args = _serve_parser().parse_args(argv)
    problem = _inputs_problem(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print(
            f"error: --rounds must be a positive integer, got {args.rounds}",
            file=sys.stderr,
        )
        return 2
    config = _load_config(args)
    if config is None:
        return 2

    inputs = _load_inputs(args)
    if inputs is None:
        return 2
    left, right, ground_truth = inputs

    service_kwargs: Dict[str, object] = {}
    if args.serve_state_dir:
        service_kwargs["state_dir"] = args.serve_state_dir
    result = asyncio.run(
        replay_pair(
            left,
            right,
            config=config,
            rounds=args.rounds,
            queries_per_round=max(0, args.queries_per_round),
            **service_kwargs,
        )
    )
    snapshot = result.snapshot

    _write_rows(args, _link_rows(snapshot.link_scores))

    print(
        serving_table(
            result.samples,
            title=f"serving counters ({args.rounds} rounds)",
        ),
        file=sys.stderr,
    )
    print(
        f"# snapshot version {snapshot.version}; "
        f"watermark {snapshot.watermark:.1f}; "
        f"{len(snapshot.links)} links; "
        f"stop threshold {snapshot.threshold:.4f} "
        f"({snapshot.threshold_method})",
        file=sys.stderr,
    )
    _print_quality(args, dict(snapshot.links), ground_truth)
    return 0


def _snapshot_main(
    args: argparse.Namespace,
    config: LinkageConfig,
    left,
    right,
    ground_truth: Optional[Dict[str, str]],
) -> int:
    """``--snapshot-dir``: a resumable streaming relink.

    Restore-or-cold-start a :class:`~repro.core.streaming.StreamingLinker`
    from the snapshot directory, fold the inputs in, relink once, and
    checkpoint the whole linker back — so repeated invocations accumulate
    state across process lifetimes.
    """
    from .core.streaming import StreamingLinker

    if args.score_cache:
        print(
            "warning: --score-cache is ignored with --snapshot-dir "
            "(the snapshot persists the score cache)",
            file=sys.stderr,
        )
    snapshot_dir = Path(args.snapshot_dir)
    linker = StreamingLinker.restore(snapshot_dir)
    resumed = linker is not None
    if linker is None:
        origin = min(left.time_range()[0], right.time_range()[0])
        linker = StreamingLinker(origin, config=config)
    linker.observe("left", list(left.records()))
    linker.observe("right", list(right.records()))
    report = linker.relink()
    linker.save(snapshot_dir)

    _write_rows(args, _link_rows(report.link_scores))
    print(
        f"# {len(report.links)} links; "
        f"stop threshold {report.threshold.threshold:.4f} "
        f"({report.threshold.method}); "
        f"{'resumed from' if resumed else 'cold start, checkpointed to'} "
        f"snapshot dir {snapshot_dir}; watermark {linker.watermark:.1f}",
        file=sys.stderr,
    )
    _print_quality(args, dict(report.links), ground_truth)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    if argv_list[:1] == ["serve"]:
        return _serve_main(argv_list[1:])
    args = build_parser().parse_args(argv_list)
    if args.list_scenarios:
        from .scenarios import get_scenario, scenario_names

        for name in scenario_names():
            print(f"{name}: {get_scenario(name).description}")
        return 0
    problem = _inputs_problem(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    config = _load_config(args)
    if config is None:
        return 2

    score_cache: Optional[ScoreCache] = None
    if args.score_cache:
        try:
            score_cache = ScoreCache.load(args.score_cache)
        except SnapshotMissing:
            score_cache = ScoreCache()
        except SnapshotError as error:
            print(
                f"warning: ignoring score cache {args.score_cache} "
                f"({type(error).__name__}: {error}); scoring cold",
                file=sys.stderr,
            )
            score_cache = ScoreCache()
    # Counters persist in the file; report this run's deltas, not totals.
    hits_before = score_cache.hits if score_cache is not None else 0
    misses_before = score_cache.misses if score_cache is not None else 0

    inputs = _load_inputs(args)
    if inputs is None:
        return 2
    left, right, ground_truth = inputs
    if args.snapshot_dir:
        return _snapshot_main(args, config, left, right, ground_truth)
    result = LinkagePipeline(config).run(left, right, score_cache=score_cache)

    rows = []
    for edge in result.matched_edges:
        linked = edge.weight >= result.threshold.threshold
        if linked or args.all_matches:
            rows.append(
                f"{edge.left},{edge.right},{edge.weight:.6f},{int(linked)}"
            )
    _write_rows(args, rows)
    print(
        f"# {len(result.links)} links / {len(result.matched_edges)} matched pairs; "
        f"stop threshold {result.threshold.threshold:.4f} "
        f"({result.threshold.method}); "
        f"{result.candidate_pairs} candidate pairs; "
        f"{result.stats.bin_comparisons} bin comparisons",
        file=sys.stderr,
    )
    _print_quality(args, result.links, ground_truth)
    if score_cache is not None:
        score_cache.save(args.score_cache)
        print(
            f"# score cache: {score_cache.hits - hits_before} hits / "
            f"{score_cache.misses - misses_before} misses this run; "
            f"{len(score_cache)} entries saved to {args.score_cache}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
