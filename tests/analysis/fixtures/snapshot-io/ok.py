"""Snapshot bytes go through repro.store; reads and other writes are fine."""

import json


def inspect(snapshot_dir):
    with open(snapshot_dir / "manifest.json") as handle:
        return json.load(handle)


def checkpoint(linker, snapshot_dir):
    return linker.save(snapshot_dir)


def export(report, out_path):
    with open(out_path, "w") as handle:
        json.dump(dict(report.links), handle)


def persist(cache, linker, cache_root, snapshot_dir):
    # Durability is delegated: both go through repro.store's one writer.
    cache.save(cache_root)
    return linker.save(snapshot_dir)


def rename_report(report_path, final_path):
    # A plain rename is not the atomic-write building block the rule polices.
    report_path.rename(final_path)
