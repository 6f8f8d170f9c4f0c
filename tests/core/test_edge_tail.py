"""The edge tail (scoring → matching → stop threshold) as arrays.

The scoring stages hand the matcher one columnar
:class:`~repro.core.matching.EdgeSet`; greedy matching and the GMM stop
threshold run over its arrays.  Both must decide exactly what the
row-at-a-time code they replaced decided, so each is checked here
against that code, kept verbatim as an oracle:

* ``greedy_max_matching`` against the sort-and-sets greedy;
* ``GaussianMixture1D.fit`` (and the whole ``gmm_stop_threshold``
  decision) against the ``(n, k)``-temporaries EM, bit for bit.

A trickle relink builds an ``Edge`` only for the matched edges until
``report.edges`` is read — and then reads exactly what a cold batch run
reports, in the same order.
"""

import math
from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.threshold as threshold_module
from repro.core.gmm import GaussianMixture1D
from repro.core.matching import Edge, EdgeSet, greedy_max_matching
from repro.core.streaming import StreamingLinker
from repro.core.threshold import gmm_stop_threshold
from repro.pipeline import LinkageConfig, LinkagePipeline

# ---------------------------------------------------------------------------
# oracles: the row-at-a-time code the arrays replaced, verbatim
# ---------------------------------------------------------------------------
_LOG_2PI = math.log(2.0 * math.pi)


def oracle_greedy_max_matching(edges: Sequence[Edge]) -> List[Edge]:
    ordered = sorted(edges, key=lambda e: (-e.weight, e.left, e.right))
    used_left: set = set()
    used_right: set = set()
    result: List[Edge] = []
    for edge in ordered:
        if edge.left in used_left or edge.right in used_right:
            continue
        used_left.add(edge.left)
        used_right.add(edge.right)
        result.append(edge)
    return result


class OracleMixture(GaussianMixture1D):
    """``GaussianMixture1D`` with the ``(n, k)`` EM it had before."""

    def fit(self, data, max_iter=300, tol=1e-9):
        x = np.asarray(data, dtype=np.float64).ravel()
        k = self.n_components
        if x.size < k:
            raise ValueError(f"need at least {k} samples, got {x.size}")

        spread = float(x.var())
        var_floor = max(spread, 1.0) * 1e-10

        ordered = np.sort(x)
        blocks = np.array_split(ordered, k)
        means = np.array([float(block.mean()) for block in blocks])
        variances = np.array(
            [max(float(block.var()), var_floor) for block in blocks]
        )
        weights = np.array([block.size / x.size for block in blocks])

        previous = -math.inf
        responsibilities = np.empty((x.size, k))
        for iteration in range(1, max_iter + 1):
            # E step (log domain).
            log_prob = -0.5 * (
                _LOG_2PI
                + np.log(variances)[None, :]
                + (x[:, None] - means[None, :]) ** 2 / variances[None, :]
            ) + np.log(np.maximum(weights, 1e-300))[None, :]
            log_norm = np.logaddexp.reduce(log_prob, axis=1)
            log_likelihood = float(log_norm.sum())
            responsibilities[:] = np.exp(log_prob - log_norm[:, None])

            # M step.
            mass = responsibilities.sum(axis=0)
            mass = np.maximum(mass, 1e-300)
            weights = mass / x.size
            means = (responsibilities * x[:, None]).sum(axis=0) / mass
            variances = (
                responsibilities * (x[:, None] - means[None, :]) ** 2
            ).sum(axis=0) / mass
            variances = np.maximum(variances, var_floor)

            self.n_iter_ = iteration
            if abs(log_likelihood - previous) < tol * max(1.0, abs(previous)):
                self.converged_ = True
                previous = log_likelihood
                break
            previous = log_likelihood

        order = np.argsort(means)
        self.weights_ = weights[order]
        self.means_ = means[order]
        self.variances_ = variances[order]
        self.log_likelihood_ = previous
        return self


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# greedy matching
# ---------------------------------------------------------------------------
#: Ids that are prefixes of each other, end in NUL (a numpy ``U`` array
#: would drop it), or are empty.
IDS = st.sampled_from(["", "a", "ab", "abc", "a\x00", "ab\x00", "b", "\x00", "ba"])
#: Few distinct weights → many ties; signed zeros and infinities too.
WEIGHTS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.0, -0.0, math.inf]),
    st.floats(allow_nan=False, width=64),
)
EDGES = st.lists(st.builds(Edge, IDS, IDS, WEIGHTS), max_size=40)


def _columns(edges, sort_rows):
    """The same edges as a scoring stage builds them: columns only."""
    return EdgeSet(
        tuple(edge.left for edge in edges),
        tuple(edge.right for edge in edges),
        np.array([edge.weight for edge in edges], dtype=np.float64),
        sort_rows=sort_rows,
    )


class TestGreedyEqualsSortAndSets:
    @settings(max_examples=300, deadline=None)
    @given(edges=EDGES)
    def test_list_input(self, edges):
        expected = oracle_greedy_max_matching(edges)
        result = greedy_max_matching(edges)
        # The very rows of the list, in the same order.
        assert len(result) == len(expected)
        assert all(got is want for got, want in zip(result, expected))

    @settings(max_examples=300, deadline=None)
    @given(edges=EDGES, sort_rows=st.booleans())
    def test_column_input(self, edges, sort_rows):
        edge_set = _columns(edges, sort_rows)
        expected = oracle_greedy_max_matching(list(edge_set))
        assert repr(greedy_max_matching(edge_set)) == repr(expected)

    @pytest.mark.parametrize("edges", [[], [Edge("a", "b", 0.5)]])
    def test_empty_and_one_edge(self, edges):
        assert greedy_max_matching(edges) == oracle_greedy_max_matching(edges)
        assert greedy_max_matching(_columns(edges, True)) == edges


class TestEdgeSetRows:
    def test_rows_are_sorted_only_when_asked(self):
        edges = [Edge("b", "x", 1.0), Edge("a", "y", 2.0), Edge("a", "x", 3.0)]
        assert list(_columns(edges, False)) == edges
        assert list(_columns(edges, True)) == sorted(edges)

    def test_sequence_and_equality(self):
        edges = [Edge("a", "x", 1.0), Edge("b", "y", 2.0)]
        wrapped = EdgeSet.from_edges(edges)
        assert EdgeSet.from_edges(wrapped) is wrapped
        assert len(wrapped) == 2 and wrapped[1] == edges[1]
        assert wrapped == edges and edges == wrapped
        assert wrapped == _columns(edges, False)
        assert wrapped != edges[:1]

    def test_from_scores_keeps_the_positive_pairs(self):
        pairs = [("a", "x"), None, ("b", "y"), ("c", "z")]
        edge_set = EdgeSet.from_scores(pairs, np.array([0.5, 0.0, -1.0, 2.0]))
        assert edge_set == [Edge("a", "x", 0.5), Edge("c", "z", 2.0)]


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------
@st.composite
def samples(draw):
    size = draw(st.integers(4, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["bimodal", "unimodal", "near-constant"]))
    if shape == "bimodal":
        low = rng.normal(0.2, 0.05, size // 2)
        high = rng.normal(draw(st.floats(0.3, 3.0)), 0.1, size - size // 2)
        data = np.concatenate([low, high])
        rng.shuffle(data)
    elif shape == "unimodal":
        data = rng.normal(1.0, draw(st.floats(1e-3, 10.0)), size)
    else:
        data = np.full(size, draw(st.floats(-5.0, 5.0)))
        data[rng.integers(0, size, 3)] += rng.normal(0, 1e-9, 3)
    return data


class TestEmEqualsNkEm:
    @settings(max_examples=60, deadline=None)
    @given(data=samples(), k=st.sampled_from([1, 2, 3]))
    def test_fit_is_bit_identical(self, data, k):
        got = GaussianMixture1D(k).fit(data)
        want = OracleMixture(k).fit(data)
        for name in ("weights_", "means_", "variances_", "log_likelihood_"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert got.n_iter_ == want.n_iter_
        assert got.converged_ == want.converged_

    @settings(max_examples=40, deadline=None)
    @given(data=samples())
    def test_stop_threshold_decision_is_bit_identical(self, data):
        got = gmm_stop_threshold(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(threshold_module, "GaussianMixture1D", OracleMixture)
            want = gmm_stop_threshold(data)
        assert got.method == want.method
        for name in (
            "threshold",
            "expected_precision",
            "expected_recall",
            "expected_f1",
        ):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert (got.model is None) == (want.model is None)
        if got.model is not None:
            for name in ("weights_", "means_", "variances_", "log_likelihood_"):
                assert _bits(getattr(got.model, name)) == _bits(
                    getattr(want.model, name)
                )


# ---------------------------------------------------------------------------
# a trickle relink builds Edge rows only for matched edges
# ---------------------------------------------------------------------------
def test_trickle_relink_builds_edges_only_for_matched(cab_pair, monkeypatch):
    config = LinkageConfig()
    start = min(cab_pair.left.time_range()[0], cab_pair.right.time_range()[0])
    end = max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1])
    cut = start + 0.9 * (end - start)
    # A trickle: the late records of three entities arrive after a relink.
    moved = {*cab_pair.left.entities[:2], cab_pair.right.entities[0]}
    linker = StreamingLinker(origin=start, config=config)
    delta = {}
    for side, dataset in (("left", cab_pair.left), ("right", cab_pair.right)):
        records = list(dataset.records())
        is_late = [r.timestamp > cut and r.entity_id in moved for r in records]
        linker.observe(side, [r for r, late in zip(records, is_late) if not late])
        delta[side] = [r for r, late in zip(records, is_late) if late]
    linker.relink()
    for side, records in delta.items():
        linker.observe(side, records)

    built = []
    construct = Edge.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(Edge, "__new__", counting)
    report = linker.relink()
    assert linker.last_relink.cache_hits > 0  # a delta, not a cold pass
    assert len(report.edges) > len(report.matched_edges) > 0
    assert len(built) == len(report.matched_edges)

    edges = list(report.edges)
    assert len(built) == len(report.matched_edges) + len(edges)
    monkeypatch.undo()
    cold = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
    assert edges == list(cold.edges)
    assert report.links == cold.links
