"""Evaluation metrics for mobility linkage (Sec. 5).

All metrics take the held-out ground truth of a
:class:`~repro.data.sampling.LinkagePair`:

* :func:`precision_recall_f1` — over a produced one-to-one linkage;
* :func:`hit_precision_at_k` — the ranking metric of Fig. 11a:
  per left entity with a true partner, ``1 - rank/k`` (0 below rank ``k``),
  averaged;
* :func:`relative_f1` — LSH quality metric of Sec. 5.3
  (``F1_lsh / F1_brute_force``);
* :func:`speedup` — comparison-count ratio, the hardware-independent
  speed-up the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = [
    "LinkageQuality",
    "precision_recall_f1",
    "hit_precision_at_k",
    "relative_f1",
    "speedup",
]


@dataclass(frozen=True)
class LinkageQuality:
    """Measured precision/recall/F1 of one linkage against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 for an empty linkage (no wrong links made)."""
        produced = self.true_positives + self.false_positives
        return self.true_positives / produced if produced else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 1.0 when there was nothing to find."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def precision_recall_f1(
    links: Mapping[str, str], ground_truth: Mapping[str, str]
) -> LinkageQuality:
    """Score a one-to-one linkage against ground truth.

    A produced link is a true positive iff ground truth maps its left
    entity to exactly its right entity; every unrecovered truth pair is a
    false negative.
    """
    true_positives = sum(
        1 for left, right in links.items() if ground_truth.get(left) == right
    )
    false_positives = len(links) - true_positives
    false_negatives = len(ground_truth) - true_positives
    return LinkageQuality(true_positives, false_positives, false_negatives)


def hit_precision_at_k(
    scores: Mapping[Tuple[str, str], float],
    ground_truth: Mapping[str, str],
    k: int = 40,
) -> float:
    """Hit-precision@k over a full score matrix (Fig. 11a).

    For each left entity with a true partner, all right entities are sorted
    by decreasing score; with the true partner at (0-based) position
    ``rank``, the entity contributes ``max(0, 1 - rank/k)``.  Entities
    whose true partner received no score contribute 0.

    The paper's formula ``1 - max(rank/k, 1)`` is a typo (it would be
    non-positive everywhere); the standard definition from ref [43] is
    used, which matches the reported behaviour.
    """
    if k < 1:
        raise ValueError("k must be positive")
    by_left: Dict[str, list] = {}
    for (left, right), score in scores.items():
        by_left.setdefault(left, []).append((score, right))

    total = 0.0
    counted = 0
    for left, true_right in ground_truth.items():
        counted += 1
        ranked = by_left.get(left)
        if not ranked:
            continue
        ranked.sort(key=lambda item: (-item[0], item[1]))
        rank = next(
            (
                position
                for position, (_, right) in enumerate(ranked)
                if right == true_right
            ),
            None,
        )
        if rank is not None:
            total += max(0.0, 1.0 - rank / k)
    return total / counted if counted else 0.0


def relative_f1(lsh_f1: float, brute_force_f1: float) -> float:
    """``F1_lsh / F1_bf`` (Sec. 5.3); 1.0 when both are zero."""
    if brute_force_f1 == 0.0:
        return 1.0 if lsh_f1 == 0.0 else float("inf")
    return lsh_f1 / brute_force_f1


def speedup(comparisons_without: int, comparisons_with: int) -> float:
    """Ratio of pairwise comparisons without/with the optimisation.

    This is the paper's speed-up metric (Sec. 5.3): hardware-independent,
    unlike wall-clock, and therefore the number the figure benches
    (docs/ARCHITECTURE.md, "Paper figures") compare against the published
    factors.
    """
    if comparisons_with <= 0:
        return float("inf") if comparisons_without > 0 else 1.0
    return comparisons_without / comparisons_with
