"""The acceptance gate: the real tree lints clean, and deleting a seed
guard from an enforced invariant is caught with the right rule and line.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from lint import run_lint

REPO = Path(__file__).resolve().parents[2]
LINT = REPO / "tools" / "repro_lint.py"


def test_repo_tree_is_lint_clean():
    report = run_lint([REPO / "src", REPO / "tools", REPO / "benchmarks"])
    assert report.ok, report.render_text()


def _lint_cli(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), str(path)],
        capture_output=True,
        text=True,
    )


def test_unseeding_city_rng_fails_with_rule_and_location(tmp_path):
    """Unseed the named-stream ``default_rng`` guard in a city.py copy."""
    source = (REPO / "src/repro/data/synth/city.py").read_text()
    seeded = 'np.random.default_rng(zlib.crc32("/".join(parts).encode("utf-8")))'
    assert seeded in source
    line = next(
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if seeded in text
    )
    mutated = tmp_path / "city.py"
    mutated.write_text(source.replace(seeded, "np.random.default_rng()"))

    result = _lint_cli(mutated)
    assert result.returncode == 1, result.stdout + result.stderr
    assert f"{mutated}:{line}:" in result.stdout
    assert "unseeded-rng" in result.stdout


def test_worker_side_cache_store_fails_with_rule_and_location(tmp_path):
    """Inject a ``ScoreCache.store_batch`` call into the scoring worker —
    the function the engine hands to ``map_blocks`` — and lint the file
    under its real path below ``src/``: the rule exempts the in-parent
    scoring modules by path, so a worker living in one of them would
    make the in-tree guard vacuous (and fail here)."""
    import inspect

    from repro.core import similarity

    worker_file = Path(inspect.getsourcefile(similarity.score_pair_block))
    source = worker_file.read_text()
    anchor = "    left, right, config = payload\n"
    assert anchor in source
    injected = anchor + "    cache.store_batch(block, [0.0] * len(block), (0, 0))\n"
    mutated = tmp_path / worker_file.relative_to(REPO)
    mutated.parent.mkdir(parents=True)
    mutated.write_text(source.replace(anchor, injected, 1))
    line = next(
        number
        for number, text in enumerate(
            mutated.read_text().splitlines(), start=1
        )
        if "cache.store_batch" in text
    )

    result = _lint_cli(mutated)
    assert result.returncode == 1, result.stdout + result.stderr
    assert f"{mutated}:{line}:" in result.stdout
    assert "worker-cache-access" in result.stdout
