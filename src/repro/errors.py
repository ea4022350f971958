"""Exception hierarchy for the PriSTE reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can distinguish library failures from programming mistakes with a
single ``except`` clause.  Subclasses are grouped by subsystem; the names
mirror the packages that raise them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An input failed structural validation (shape, range, stochasticity)."""


class GridError(ReproError, ValueError):
    """An operation on a :class:`repro.geo.GridMap` received bad indices."""


class RegionError(ReproError, ValueError):
    """A :class:`repro.geo.Region` was constructed or combined incorrectly."""


class MarkovError(ReproError, ValueError):
    """A Markov-model operation failed (non-stochastic matrix, bad fit)."""


class DatasetError(ReproError, ValueError):
    """Trace loading, simulation or discretization failed."""


class MechanismError(ReproError, ValueError):
    """An LPPM was configured or queried inconsistently."""


class UnknownMechanismError(MechanismError):
    """A mechanism name failed to resolve in the LPPM registry.

    Raised by :func:`repro.lppm.resolve_mechanism` when a name (or
    alias) is not registered -- a typed miss instead of a silent
    ``getattr``-style fallback, so a scenario referencing a mistyped
    mechanism fails loudly at spec-compile time.
    """


class EventError(ReproError, ValueError):
    """A spatiotemporal event definition is malformed."""


class QuantificationError(ReproError, ValueError):
    """Privacy quantification hit a degenerate case.

    The canonical example is a prior probability of zero for the event or
    its negation, which makes the likelihood ratio of Definition II.4
    undefined.
    """


class DegeneratePriorError(QuantificationError):
    """``Pr(EVENT)`` or ``Pr(not EVENT)`` is zero for the supplied prior."""


class SolverError(ReproError, RuntimeError):
    """The quadratic-programming solver failed to produce a usable answer."""


class CalibrationError(ReproError, RuntimeError):
    """PriSTE budget calibration could not find a releasable output."""


class SessionError(ReproError, RuntimeError):
    """A streaming release session was configured or driven incorrectly.

    Raised by :mod:`repro.engine` for lifecycle misuse: stepping past the
    horizon or after ``finish()``, building a session from an incomplete
    :class:`~repro.engine.SessionBuilder`, or restoring a corrupt
    checkpoint.
    """


class CheckpointVersionError(SessionError):
    """A session checkpoint uses a schema newer than this build knows.

    Raised when restoring a :class:`~repro.engine.SessionState` whose
    ``schema`` field exceeds the library's
    :data:`~repro.engine.session.STATE_SCHEMA_VERSION` -- a typed,
    immediate rejection instead of a ``KeyError`` deep in the engine.
    """


class ScenarioError(ReproError, ValueError):
    """A declarative :class:`~repro.scenario.ScenarioSpec` is invalid.

    Raised by :mod:`repro.scenario` for malformed spec JSON, parameters
    that cannot compile into an :class:`~repro.engine.EngineConfig`, or
    a scenario rejected by a server's allowlist.
    """


class ServiceError(ReproError, RuntimeError):
    """The network serving layer (:mod:`repro.service`) failed.

    Base class for faults that belong to the service itself rather than
    to the engine it fronts: transport problems, store corruption, a
    server that went away mid-request.
    """


class ServiceBusyError(ServiceError):
    """Admission control rejected a request (capacity reached).

    The canonical backpressure signal: opening a session beyond the
    server's ``max_sessions`` cap gets this as a typed reply instead of
    a hang, so clients can retry elsewhere or later.
    """


class OverloadedError(ServiceBusyError):
    """Load shedding rejected a request before execution (retryable).

    Raised by the server's admission layer when a request's deadline is
    already blown by queueing, or when sustained queue delay trips the
    CoDel-style shedder.  The session's state is untouched -- the shed
    happens strictly *before* execution -- so a client that retries
    after ``retry_after_ms`` observes the same bit-identical stream it
    would have seen without the shed.
    """

    def __init__(self, message: str, retry_after_ms: int | None = None):
        super().__init__(message)
        #: Server's backoff hint in milliseconds (``None`` when unknown).
        self.retry_after_ms = retry_after_ms


class ShardDownError(ServiceError):
    """A worker process owning sessions died; they are unreachable.

    The base of :class:`WorkerDownError`, which every worker fleet
    raises today; it survives as the ``shard_down`` wire code so clients
    that catch it keep working.  Sessions on a dead worker keep raising
    this typed error instead of silently disappearing; sessions on
    other workers are unaffected.
    """


class WorkerDownError(ShardDownError):
    """A cluster worker is unreachable; its sessions are lost.

    Raised by :class:`~repro.cluster.ClusterBackend` -- local
    (``--shards``) or remote (``--backend``) -- when a worker's channel
    broke, its heartbeat lapsed, or an RPC exceeded its deadline.
    Sessions assigned to the dead worker keep raising this typed error;
    sessions on other workers -- and new opens, which re-route around
    the hole in the ring -- are unaffected.
    """


class ProtocolError(ServiceError, ValueError):
    """A service frame was malformed or used an unsupported version."""


class FrameTooLargeError(ProtocolError):
    """A length-prefixed RPC frame exceeds the transport's size bound.

    Raised on *both* sides of the cluster RPC channel
    (:mod:`repro.cluster.frames`): before sending a frame that would
    exceed the limit (the channel stays usable) and on receiving a
    length header that announces one (the channel cannot be re-synced
    and is closed).  A corrupt or hostile length header therefore
    surfaces as a typed error instead of wedging or OOM-ing a worker.
    """
