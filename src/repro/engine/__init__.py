"""Streaming release engine: Algorithm 1 as an online, multi-session API.

The paper's framework calibrates, checks and releases *one timestamp at
a time*; this package exposes exactly that shape:

* :class:`SessionBuilder` / :class:`EngineConfig` -- fluent, immutable
  configuration of a release setting;
* :class:`ReleaseSession` -- ``step(true_cell) -> ReleaseRecord`` with
  ``peek_budget()``, ``finish() -> ReleaseLog`` and checkpoint/restore
  (:meth:`~ReleaseSession.to_state` / :meth:`~ReleaseSession.from_state`);
* :class:`CalibrationStrategy` plug-ins -- :class:`BudgetHalving` (the
  paper's Algorithm 2 schedule, the default), :class:`LinearDecay` and
  :class:`BinarySearchCalibration`;
* :class:`SessionManager` -- many concurrent sessions over shared
  two-world models, a shared mechanism ladder and a :class:`VerdictCache`
  of solver verdicts;
* :class:`ExecutionBackend` -- where a fleet's work runs:
  :class:`InProcessBackend` (one manager, this process); the
  multi-process backends live in :mod:`repro.cluster`;
* the mechanism-provider protocol (moved here from
  :mod:`repro.core.priste`, which still re-exports it).

The legacy batch API (:class:`repro.PriSTE`, ``run(trajectory)``) is a
thin wrapper over a session and reproduces its old outputs bit-for-bit.
"""

from .backend import ExecutionBackend, InProcessBackend, as_backend
from .cache import CacheStats, VerdictCache, digest_array
from .calibration import (
    BinarySearchCalibration,
    BudgetHalving,
    CalibrationSchedule,
    CalibrationStrategy,
    LinearDecay,
    resolve_strategy,
)
from .config import EngineConfig, SessionBuilder, config_with
from .manager import SessionManager
from .providers import (
    DeltaLocationSetProvider,
    MechanismProvider,
    StaticMechanismProvider,
)
from .records import ReleaseLog, ReleaseRecord, stack_release_logs
from .session import (
    STATE_SCHEMA_VERSION,
    EngineCore,
    ReleaseSession,
    SessionState,
    step_sessions_lockstep,
)

__all__ = [
    "BinarySearchCalibration",
    "BudgetHalving",
    "CacheStats",
    "CalibrationSchedule",
    "CalibrationStrategy",
    "DeltaLocationSetProvider",
    "EngineConfig",
    "EngineCore",
    "ExecutionBackend",
    "InProcessBackend",
    "LinearDecay",
    "MechanismProvider",
    "ReleaseLog",
    "ReleaseRecord",
    "ReleaseSession",
    "SessionBuilder",
    "SessionManager",
    "SessionState",
    "STATE_SCHEMA_VERSION",
    "StaticMechanismProvider",
    "VerdictCache",
    "as_backend",
    "config_with",
    "digest_array",
    "resolve_strategy",
    "stack_release_logs",
    "step_sessions_lockstep",
]
