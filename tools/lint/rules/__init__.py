"""The built-in repro-lint rule pack.

Importing this package registers every rule in
:data:`lint.lint_rules`; each module groups the rules guarding
one family of invariants (see ``docs/ARCHITECTURE.md`` § Static
analysis).
"""

from .determinism import (
    FloatScoreEqRule,
    SetIterationOrderRule,
    UnseededRngRule,
    WallClockRule,
)
from .executor import (
    NonPicklableTaskRule,
    WorkerCacheAccessRule,
    WorkerSharedMutationRule,
)
from .persistence import SnapshotIoRule
from .registry_rules import (
    RegistryConfigKnobRule,
    RegistryDuplicateRule,
    RegistryExportRule,
)
from .serve import ServiceContextRule, SnapshotMutationRule

__all__ = [
    "FloatScoreEqRule",
    "NonPicklableTaskRule",
    "RegistryConfigKnobRule",
    "RegistryDuplicateRule",
    "RegistryExportRule",
    "ServiceContextRule",
    "SetIterationOrderRule",
    "SnapshotIoRule",
    "SnapshotMutationRule",
    "UnseededRngRule",
    "WallClockRule",
    "WorkerCacheAccessRule",
    "WorkerSharedMutationRule",
]
