"""``import repro`` stays scipy-free: scipy is imported where it is used
(``hungarian_matching``, the GMM's ``erf``), so ``slim-link``,
``repro_lint.py`` and every spawned worker start without paying ~0.45 s
and ~40 MB for sub-packages the default path never calls.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_repro_loads_no_scipy():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import repro, repro.cli; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
