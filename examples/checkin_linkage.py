"""Linking two check-in services (the SM scenario).

The paper's second corpus links Twitter to Foursquare: sparse evidence
(~12 records/user), global spread, and *asynchronous* usage — the two
services are rarely used at the same instant, which is exactly what the
similarity score's asynchrony tolerance (Sec. 3.1, property 2) is for.

This example builds a two-service world, links with SLIM, and shows how
accuracy responds to the amount of evidence per user (the Fig. 7c effect:
F1 climbs steeply once users have >= ~15 records).

Run:  python examples/checkin_linkage.py
"""

from repro import LinkageConfig, LinkagePipeline
from repro.data.synth import default_sm_world
from repro.eval import format_table, precision_recall_f1


def main() -> None:
    world = default_sm_world(num_users=400, duration_days=10.0, seed=11)

    print("Linking two asynchronous services derived from one check-in world\n")
    rows = []
    for inclusion in (0.3, 0.5, 0.7, 0.9):
        pair = world.two_services(
            intersection_ratio=0.5,
            inclusion_probability=inclusion,
            min_records=5,
            seed=11,
        )
        result = LinkagePipeline(LinkageConfig()).run(pair.left, pair.right)
        quality = precision_recall_f1(result.links, pair.ground_truth)
        avg_records = (
            pair.left.num_records / pair.left.num_entities
            + pair.right.num_records / pair.right.num_entities
        ) / 2
        rows.append(
            {
                "inclusion_prob": inclusion,
                "avg_records": round(avg_records, 1),
                "entities/side": pair.left.num_entities,
                "true_links": pair.num_common,
                "produced": len(result.links),
                "precision": quality.precision,
                "recall": quality.recall,
                "f1": quality.f1,
            }
        )

    print(
        format_table(
            rows,
            precision=3,
            title="F1 vs record inclusion probability (SM-style world)",
        )
    )
    print(
        "\nAs in the paper (Fig. 7c): with ~10 records per user the linkage "
        "is partial;\nonce users carry >= ~15 records, F1 climbs above 0.9 "
        "while precision stays high\n(the automated stop threshold keeps "
        "false links out even when recall is limited)."
    )


if __name__ == "__main__":
    main()
