"""Hand-writing snapshot payloads bypasses the atomic repro.store writers."""

import json
import os
import pickle
import tempfile
from os import replace as promote

import numpy as np


def clobber(snapshot_dir, state, scores, manifest):
    with open(snapshot_dir / "state.pkl", "wb") as handle:  # lint-expect: snapshot-io
        pickle.dump(state, handle)
    np.save(snapshot_dir / "scores.npy", scores)  # lint-expect: snapshot-io
    np.save("out/snapshot-cells.npy", scores)  # lint-expect: snapshot-io
    (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))  # lint-expect: snapshot-io


def litter(snap_path, state):
    with snap_path.open("w") as handle:  # lint-expect: snapshot-io
        json.dump(state, handle)


def hand_rolled_atomic_write(path, blob):
    fd, tmp_name = tempfile.mkstemp(dir=path.parent)  # lint-expect: snapshot-io
    with os.fdopen(fd, "wb") as handle:
        handle.write(blob)
        os.fsync(handle.fileno())  # lint-expect: snapshot-io
    os.replace(tmp_name, path)  # lint-expect: snapshot-io


def aliased_replace(tmp_name, path):
    promote(tmp_name, path)  # lint-expect: snapshot-io
