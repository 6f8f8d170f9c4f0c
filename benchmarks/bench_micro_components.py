"""Micro-benchmarks of SLIM's building blocks.

Times each pipeline stage in isolation — the CSV loader, history
construction (dense and sparse, checked against a per-entity build), the similarity kernel (both scoring backends), LSH signature
construction (checked against the paper's count tree) and bucketing, the
two bipartite matchers, and the GMM
threshold fit — so
performance regressions can be localised, and the greedy-vs-exact matcher
ablation (the ``matching`` stage's two registry entries, docs/ARCHITECTURE.md
"The pipeline") has numbers attached.

The pairwise-scoring comparison additionally writes
``BENCH_pairwise_scoring.json`` (see :func:`bench_util.write_bench_json`)
recording the scalar-vs-numpy component timings and the speedup, the
headline number this repo's performance PRs track.
"""

import csv
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from bench_util import time_callable, write_bench_json
from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory, build_histories
from repro.core.matching import Edge, greedy_max_matching, hungarian_matching
from repro.core.similarity import SimilarityConfig, SimilarityEngine
from repro.core.threshold import gmm_stop_threshold
from repro.data import load_csv, save_csv
from repro.eval import format_table, write_report
from repro.lsh import LshConfig, LshIndex, SignatureSpec, signature_matrix
from repro.temporal import common_windowing

# The test suite's scalar oracles (the paper's Fig. 1 count tree).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from fig1_oracle import build_signature  # noqa: E402
from lsh_calls import signatures_to_array  # noqa: E402


def _setup(pair, level=12, width_seconds=900.0):
    windowing = common_windowing(
        (pair.left.time_range(), pair.right.time_range()), width_seconds
    )
    left = build_histories(pair.left, windowing, level)
    right = build_histories(pair.right, windowing, level)
    return windowing, left, right


def _engine(left, right, backend):
    return SimilarityEngine(
        HistoryCorpus(left, 12),
        HistoryCorpus(right, 12),
        SimilarityConfig(backend=backend),
    )


def test_micro_load_csv(benchmark, cab_pair, tmp_path):
    """``load_csv`` of a ``save_csv`` file (the bulk route), its columns
    checked bit for bit against a ``csv.reader`` + ``float()`` read of
    the same file."""
    path = tmp_path / "left.csv"
    save_csv(cab_pair.left, path)
    expected = {}
    with path.open(newline="", encoding="utf-8") as handle:
        for entity, lat, lng, timestamp in list(csv.reader(handle))[1:]:
            row = (float(timestamp), float(lat), float(lng))
            expected.setdefault(entity, []).append(row)
    loaded = benchmark(lambda: load_csv(path))
    assert loaded.entities == list(expected)
    for entity, rows in expected.items():
        # save_csv writes an entity's rows in time order: the loaded order.
        want = np.array(rows, dtype=np.float64).T
        got = loaded.columns(entity)
        assert [column.tobytes() for column in got] == [c.tobytes() for c in want]


@pytest.mark.parametrize("workload", ["cab_pair", "sm_pair"])
def test_micro_history_build(benchmark, workload, request):
    """``build_histories`` of a whole side — dense taxi traces and sparse
    check-ins — its histories checked bit for bit against a per-entity
    build of the same records."""
    pair = request.getfixturevalue(workload)
    windowing, _, _ = _setup(pair)
    built = benchmark(lambda: build_histories(pair.left, windowing, 12))
    assert list(built) == pair.left.entities
    for entity, history in built.items():
        alone = MobilityHistory.from_columns(
            entity, *pair.left.columns(entity), windowing, 12
        )
        assert history.num_records == alone.num_records
        for name in ("_windows", "_cells", "_counts"):
            got, want = getattr(history, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_micro_similarity_kernel(benchmark, cab_pair, backend):
    windowing, left, right = _setup(cab_pair)
    engine = _engine(left, right, backend)
    pairs = [(a, b) for a in list(left)[:5] for b in list(right)[:5]]
    # Warm the caches (scalar distance memo / kernel array views) once so
    # the benchmark measures steady state.
    engine.score_batch(pairs)
    benchmark(lambda: engine.score_batch(pairs))


def test_micro_pairwise_scoring_speedup(cab_pair, results_dir):
    """The headline component: score a block of candidate pairs with both
    backends, assert identical results and the targeted >=5x speedup, and
    record the numbers machine-readably."""
    _, left, right = _setup(cab_pair)
    pairs = [(a, b) for a in list(left)[:10] for b in list(right)[:10]]

    scalar = _engine(left, right, "python")
    vectorized = _engine(left, right, "numpy")
    scalar_scores = scalar.score_batch(pairs)  # also warms the memo
    vector_scores = vectorized.score_batch(pairs)
    worst = max(
        abs(a - b) for a, b in zip(scalar_scores, vector_scores)
    )
    assert worst <= 1e-9 + 1e-9 * max(map(abs, scalar_scores))

    timing_scalar = time_callable(lambda: scalar.score_batch(pairs), rounds=5)
    timing_vector = time_callable(lambda: vectorized.score_batch(pairs), rounds=5)
    speedup = timing_scalar["best_s"] / timing_vector["best_s"]
    write_bench_json(
        "pairwise_scoring",
        {
            "workload": {"world": "cab", "pairs": len(pairs), "rounds": 5},
            "pairs": len(pairs),
            "python_backend": timing_scalar,
            "numpy_backend": timing_vector,
            "speedup": speedup,
            "max_score_diff": worst,
        },
        results_dir,
    )
    write_report(
        format_table(
            [
                {"backend": "python (oracle)", "best_s": timing_scalar["best_s"]},
                {
                    "backend": "numpy (batch kernel)",
                    "best_s": timing_vector["best_s"],
                    "speedup": speedup,
                },
            ],
            precision=5,
            title=f"Pairwise scoring, {len(pairs)}-pair block (cab workload)",
        ),
        results_dir / "micro_pairwise_scoring.txt",
    )
    # The >=5x target holds with margin on a quiet machine (~6.5x); CI's
    # shared runners set BENCH_SPEEDUP_FLOOR lower so timing noise cannot
    # fail the build — the JSON above records the real number either way.
    floor = float(os.environ.get("BENCH_SPEEDUP_FLOOR", "5.0"))
    assert speedup >= floor, f"batch kernel speedup regressed: {speedup:.2f}x"


@pytest.mark.parametrize("workload", ["cab_pair", "sm_pair"])
def test_micro_signature_build(benchmark, workload, request):
    """``signature_matrix`` of a whole side — dense taxi traces and sparse
    check-ins — checked row for row against the paper's count-tree
    formulation (``tests/fig1_oracle.py``)."""
    pair = request.getfixturevalue(workload)
    windowing, left, _ = _setup(pair, level=14)
    latest = max(pair.left.time_range()[1], pair.right.time_range()[1])
    spec = SignatureSpec(0, windowing.index_of(latest) + 1, 8, 14)
    matrix = benchmark(lambda: signature_matrix(left, spec))
    oracle = signatures_to_array(
        [build_signature(history, spec) for history in left.values()]
    )
    assert np.array_equal(matrix, oracle.reshape(matrix.shape))


def test_micro_lsh_index(benchmark, cab_pair):
    windowing, left, right = _setup(cab_pair, level=14)
    latest = max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1])
    config = LshConfig(threshold=0.5, step_windows=8, spatial_level=14)
    spec = SignatureSpec(0, windowing.index_of(latest) + 1, 8, 14)

    def run():
        index = LshIndex(config, spec)
        index.add_histories(left, right)
        return index.candidate_pairs()

    benchmark(run)


def _random_edges(n_left=60, n_right=60, seed=5):
    rng = np.random.default_rng(seed)
    return [
        Edge(f"l{i}", f"r{j}", float(rng.random()))
        for i in range(n_left)
        for j in range(n_right)
    ]


def test_micro_matching_greedy(benchmark):
    edges = _random_edges()
    benchmark(lambda: greedy_max_matching(edges))


def test_micro_matching_hungarian(benchmark):
    edges = _random_edges()
    benchmark(lambda: hungarian_matching(edges))


def test_micro_matching_quality_ablation(benchmark, results_dir):
    """Design-choice ablation: how much matching weight does the paper's
    greedy heuristic give up against the exact matcher?"""
    edges = _random_edges()

    def compare():
        greedy = sum(e.weight for e in greedy_max_matching(edges))
        exact = sum(e.weight for e in hungarian_matching(edges))
        return greedy, exact

    greedy, exact = benchmark.pedantic(compare, rounds=1, iterations=1)
    write_report(
        format_table(
            [
                {
                    "matcher": "greedy (paper)",
                    "total_weight": greedy,
                    "fraction_of_exact": greedy / exact,
                },
                {"matcher": "hungarian", "total_weight": exact, "fraction_of_exact": 1.0},
            ],
            precision=4,
            title="Matching ablation: greedy vs exact total weight (random bipartite)",
        ),
        results_dir / "micro_matching_ablation.txt",
    )
    # Greedy is known-good on separable score distributions; even on random
    # weights it stays within a modest factor of optimal.
    assert greedy >= 0.8 * exact


def test_micro_gmm_threshold(benchmark, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    weights = np.concatenate([rng.normal(5, 1.5, 150), rng.normal(40, 5, 100)])
    benchmark(lambda: gmm_stop_threshold(weights))
