"""The linter lives in ``tools/lint/`` (it is not part of the shipped
package): put ``tools/`` on the import path so these tests can
``import lint`` the way ``tools/repro_lint.py`` does."""

import sys
from pathlib import Path

_TOOLS = str(Path(__file__).resolve().parents[2] / "tools")
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)
