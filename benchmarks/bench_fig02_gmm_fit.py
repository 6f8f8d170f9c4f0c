"""Figure 2: GMM fit over matched-edge similarity scores.

The paper's Fig. 2 shows the histogram of matched-edge weights, the two
fitted GMM components (false-positive and true-positive links) and the
detected stop threshold.  This bench regenerates the underlying data: the
component parameters, the threshold, and a text histogram annotated with
ground truth — confirming the threshold falls between the clusters.
"""

import numpy as np

from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.eval import format_table, write_report


def _histogram_rows(weights, truth_flags, model, threshold, bins=12):
    edges = np.linspace(min(weights), max(weights) + 1e-9, bins + 1)
    rows = []
    for k in range(bins):
        mask = [(edges[k] <= w < edges[k + 1]) for w in weights]
        true_count = sum(1 for m, t in zip(mask, truth_flags) if m and t)
        false_count = sum(1 for m, t in zip(mask, truth_flags) if m and not t)
        rows.append(
            {
                "bin_low": edges[k],
                "true_links": true_count,
                "false_links": false_count,
                "above_threshold": int(edges[k] >= threshold),
            }
        )
    return rows


def test_fig02_gmm_fit(benchmark, cab_pair, results_dir):
    linker = LinkagePipeline(LinkageConfig())

    result = benchmark.pedantic(
        lambda: linker.run(cab_pair.left, cab_pair.right), rounds=1, iterations=1
    )

    weights = [edge.weight for edge in result.matched_edges]
    truth_flags = [
        cab_pair.ground_truth.get(edge.left) == edge.right
        for edge in result.matched_edges
    ]
    decision = result.threshold
    model = decision.model
    assert model is not None, "expected a non-degenerate GMM fit"

    lines = ["Figure 2: GMM fit over matched edge weights", ""]
    lines.append(
        f"component m1 (false links): weight={model.weights_[0]:.3f} "
        f"mean={model.means_[0]:.2f} std={np.sqrt(model.variances_[0]):.2f}"
    )
    lines.append(
        f"component m2 (true links):  weight={model.weights_[1]:.3f} "
        f"mean={model.means_[1]:.2f} std={np.sqrt(model.variances_[1]):.2f}"
    )
    lines.append(
        f"detected stop threshold: {decision.threshold:.2f} "
        f"(expected P={decision.expected_precision:.3f}, "
        f"R={decision.expected_recall:.3f}, F1={decision.expected_f1:.3f})"
    )
    lines.append("")
    lines.append(
        format_table(
            _histogram_rows(weights, truth_flags, model, decision.threshold),
            precision=1,
            title="weight histogram vs ground truth",
        )
    )

    # Shape checks mirroring the figure: true links sit in the upper
    # component, the threshold separates the clusters.
    true_weights = [w for w, t in zip(weights, truth_flags) if t]
    false_weights = [w for w, t in zip(weights, truth_flags) if not t]
    if true_weights and false_weights:
        lines.append("")
        lines.append(
            f"mean true-link weight:  {np.mean(true_weights):.2f}"
        )
        lines.append(
            f"mean false-link weight: {np.mean(false_weights):.2f}"
        )
        assert np.mean(true_weights) > np.mean(false_weights)
        kept_true = sum(1 for w in true_weights if w >= decision.threshold)
        kept_false = sum(1 for w in false_weights if w >= decision.threshold)
        lines.append(
            f"links kept: {kept_true} true, {kept_false} false "
            f"of {len(weights)} matched"
        )
        assert kept_true / len(true_weights) >= 0.7
        assert kept_false / max(1, len(false_weights)) <= 0.3

    write_report("\n".join(lines), results_dir / "fig02_gmm_fit.txt")
