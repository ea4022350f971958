"""The streaming release session: Algorithm 1 one timestamp at a time.

The paper's framework is inherently online -- at every timestamp it
calibrates the LPPM, checks epsilon-spatiotemporal-event privacy and
releases one location -- but the original reproduction only exposed the
batch ``PriSTE.run(trajectory)``.  :class:`ReleaseSession` is the
incremental form::

    session = builder.build(rng=0)
    record = session.step(true_cell)      # one release
    session.peek_budget()                 # budget the next step starts from
    state = session.to_state()            # suspend ...
    session = ReleaseSession.from_state(config, state)   # ... resume
    log = session.finish()                # the familiar ReleaseLog

Driven to the end of a trajectory with the default halving calibration,
a session reproduces the legacy batch run bit-for-bit (same RNG
consumption, same verdicts, same records); ``PriSTE.run`` is now a thin
wrapper doing exactly that.

Algorithm 1 is written once, in :func:`_calibrate`: prepare the fronts,
sample a candidate per session, check them all in one verdict round,
halve the budgets, repeat, commit.  A solo :meth:`ReleaseSession.step`
runs it with a group of one and consults the verdict cache;
:func:`step_sessions_lockstep` runs it with a same-phase group and
leaves the cache alone.
"""

from __future__ import annotations

import time
import uuid

import numpy as np

from .._validation import resolve_rng
from ..core.joint import EventQuantifier, prepare_many
from ..core.qp import SolverStatus, solve_conditions_batch
from ..core.theorem import privacy_conditions, sufficient_safe
from ..core.two_world import TwoWorldModel
from ..errors import CheckpointVersionError, QuantificationError, SessionError
from ..lppm.uniform import UniformMechanism
from .cache import VerdictCache, digest_array
from .config import EngineConfig
from .providers import MechanismProvider
from .records import ReleaseLog, ReleaseRecord

#: Version of the :class:`SessionState` JSON schema this build writes.
#: v1 (PR 1) had no ``schema`` or ``scenario`` field; v2 added both.
#: Restoring a state from a *newer* schema raises a typed
#: :class:`~repro.errors.CheckpointVersionError` immediately, instead of
#: a ``KeyError`` deep in the engine.
STATE_SCHEMA_VERSION = 2


def _combine_statuses(statuses) -> SolverStatus:
    """Worst-of combination: VIOLATED dominates UNKNOWN dominates SAFE."""
    worst = SolverStatus.SAFE
    for status in statuses:
        if status is SolverStatus.VIOLATED:
            return SolverStatus.VIOLATED
        if status is SolverStatus.UNKNOWN:
            worst = SolverStatus.UNKNOWN
    return worst


def _solve_condition_pairs(pairs, options) -> list[SolverStatus]:
    """Statuses for Eq. (15)/(16) condition pairs, batched in two waves.

    Mirrors ``check_conditions``'s forward-first short-circuit at batch
    scale: wave one solves every pair's forward condition in a single
    stacked call; wave two solves backward conditions only for pairs
    whose forward was not already VIOLATED.  Total solver work is
    therefore identical to looping the sequential front end over the
    pairs, and each status matches it exactly.
    """
    forward_results = solve_conditions_batch(
        [pair[0] for pair in pairs], options
    )
    statuses: list[SolverStatus | None] = [None] * len(pairs)
    pending: list[int] = []
    for index, result in enumerate(forward_results):
        if result.status is SolverStatus.VIOLATED:
            statuses[index] = SolverStatus.VIOLATED
        else:
            pending.append(index)
    if pending:
        backward_results = solve_conditions_batch(
            [pairs[index][1] for index in pending], options
        )
        for index, result in zip(pending, backward_results):
            statuses[index] = _combine_statuses(
                (forward_results[index].status, result.status)
            )
    return statuses


class EngineCore:
    """Shared, immutable machinery behind one or more sessions.

    Building the two-world models is the expensive part of session
    start-up (O(m^2) per event); a core builds them once and every
    session created from it -- all of a :class:`SessionManager`'s fleet,
    or every ``run()`` of a legacy wrapper -- reuses them.  The optional
    verdict cache lives here too, so sessions sharing a core share hits.
    """

    def __init__(self, config: EngineConfig, cache: VerdictCache | None = None):
        self.config = config
        self.models = [
            TwoWorldModel(config.chain, event, config.horizon)
            for event in config.events
        ]
        self.n_states = self.models[0].n_states
        self.a_vectors = [model.prior_vector() for model in self.models]
        self.cache = cache
        self.config_fingerprint = config.fingerprint()
        # Verdict-cache key prefixes, one per event: everything ahead of
        # the per-step front digest is constant for the core's lifetime,
        # so sessions concatenate instead of re-joining four parts per
        # event per calibration attempt.
        self.event_key_prefixes = [
            self.config_fingerprint + b"|" + index.to_bytes(2, "little") + b"|"
            for index in range(len(self.models))
        ]

    def new_provider(self) -> MechanismProvider:
        """A provider for one new session (fresh when stateful)."""
        return self.config.provider_factory()

    def new_quantifiers(self) -> list[EventQuantifier]:
        """Fresh incremental quantifiers over the shared models."""
        return [EventQuantifier(model) for model in self.models]


class SessionState:
    """A suspended session: everything needed to resume it elsewhere.

    Produced by :meth:`ReleaseSession.to_state`; JSON-serializable via
    :meth:`to_json`/:meth:`from_json`, so sessions can be parked in a
    database between a user's location fixes.

    ``scenario`` carries the session's scenario binding when the state
    was checkpointed through a :class:`~repro.engine.SessionManager`
    with a non-default scenario: a ``{"digest": ..., "spec": ...}`` dict
    holding the spec's stable digest and its full JSON form, so *any*
    process (a different shard worker, a restarted server with a
    different shard count) can re-materialize the right models on
    restore.  ``None`` means the restoring manager's default
    configuration, which is the pre-scenario behaviour.
    """

    def __init__(
        self,
        committed_t: int,
        records: list[ReleaseRecord],
        quantifiers: list[dict],
        provider: dict,
        rng: dict,
        emissions: list[np.ndarray] | None,
        session_id: str,
        scenario: dict | None = None,
    ):
        self.committed_t = committed_t
        self.records = records
        self.quantifiers = quantifiers
        self.provider = provider
        self.rng = rng
        self.emissions = emissions
        self.session_id = session_id
        self.scenario = scenario

    def to_json(self) -> dict:
        """Plain-dict form, safe for ``json.dumps``."""
        return {
            "schema": STATE_SCHEMA_VERSION,
            "committed_t": self.committed_t,
            "records": [record.to_json() for record in self.records],
            "quantifiers": self.quantifiers,
            "provider": self.provider,
            "rng": self.rng,
            "emissions": (
                None
                if self.emissions is None
                else [matrix.tolist() for matrix in self.emissions]
            ),
            "session_id": self.session_id,
            "scenario": self.scenario,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SessionState":
        """Inverse of :meth:`to_json`.

        Accepts any schema version up to :data:`STATE_SCHEMA_VERSION`
        (v1 states simply lack the newer fields); a state written by a
        *newer* build raises :class:`CheckpointVersionError` before any
        field is touched.
        """
        version = int(data.get("schema", 1))
        if version > STATE_SCHEMA_VERSION:
            raise CheckpointVersionError(
                f"session state uses checkpoint schema v{version}; this "
                f"build reads up to v{STATE_SCHEMA_VERSION} -- upgrade the "
                "library to restore it"
            )
        scenario = data.get("scenario")
        return cls(
            committed_t=int(data["committed_t"]),
            records=[ReleaseRecord.from_json(r) for r in data["records"]],
            quantifiers=list(data["quantifiers"]),
            provider=dict(data["provider"]),
            rng=dict(data["rng"]),
            emissions=(
                None
                if data["emissions"] is None
                else [np.asarray(m, dtype=np.float64) for m in data["emissions"]]
            ),
            session_id=str(data["session_id"]),
            scenario=None if scenario is None else dict(scenario),
        )


def _rng_state(generator: np.random.Generator) -> dict:
    return generator.bit_generator.state


def _rng_from_state(state: dict) -> np.random.Generator:
    name = state["bit_generator"]
    try:
        bit_generator = getattr(np.random, name)()
    except AttributeError:
        raise SessionError(f"unknown bit generator {name!r} in session state")
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class _StepDriver:
    """One session's Algorithm 1 state machine for a single timestamp.

    :func:`_calibrate`, the one calibration loop, drives every step
    through these transitions -- a solo step as a group of one, a
    lockstep batch as a group of many -- so both take the same RNG
    draws, schedule calls and fallbacks in the same order, which is what
    makes batched stepping bit-identical to per-session stepping.
    ``prefixes`` holds a solo step's verdict-cache key prefixes
    (:meth:`ReleaseSession._step_key_prefixes`); a driver in a
    multi-session group keeps None and its checks skip the cache.
    """

    __slots__ = (
        "session",
        "t",
        "cell",
        "t_start",
        "rng_checkpoint",
        "mechanism",
        "schedule",
        "candidate",
        "column",
        "prefixes",
        "released_cell",
        "released_column",
        "conservative",
        "forced_uniform",
        "attempts",
    )

    def __init__(self, session: "ReleaseSession", true_cell: int):
        session._ensure_open()
        t = session.t
        if t > session._config.horizon:
            raise SessionError(
                f"step({true_cell}) at t={t} exceeds horizon "
                f"T={session._config.horizon}; call finish()"
            )
        cell = int(true_cell)
        if not 0 <= cell < session._core.n_states:
            raise QuantificationError(
                f"cell {cell} out of range [0, {session._core.n_states})"
            )
        self.session = session
        self.t = t
        self.cell = cell
        self.t_start = time.perf_counter()
        self.rng_checkpoint = session._generator.bit_generator.state
        self.mechanism = None
        self.schedule = None
        self.candidate: int | None = None
        self.column: np.ndarray | None = None
        self.prefixes: list[bytes] | None = None
        self.released_cell: int | None = None
        self.released_column: np.ndarray | None = None
        self.conservative = False
        self.forced_uniform = False
        self.attempts = 0

    def begin(self) -> None:
        """Fetch the base mechanism and open the budget schedule."""
        session = self.session
        self.mechanism = session._provider.base_mechanism(self.t)
        self.schedule = session._config.calibration.begin(float(self.mechanism.budget))

    def next_candidate(self) -> np.ndarray | None:
        """Sample the next candidate; ``None`` = released via fallback.

        Advances the attempt counter; past ``max_calibrations`` the
        session takes the guaranteed-safe uniform release and the step
        is complete without a solver check.
        """
        session = self.session
        self.attempts += 1
        if self.attempts > session._config.max_calibrations:
            self._release_uniform()
            return None
        self.candidate = int(self.mechanism.perturb(self.cell, session._generator))
        self.column = self.mechanism.emission_column(self.candidate)
        return self.column

    def apply_verdict(self, verdict: SolverStatus) -> bool:
        """Fold one check's verdict into the schedule; True = released."""
        session = self.session
        if verdict is SolverStatus.SAFE:
            next_budget = self.schedule.after_success(float(self.mechanism.budget))
            if next_budget is None:
                self.released_cell = self.candidate
                self.released_column = self.column
                return True
        else:
            if verdict is SolverStatus.UNKNOWN:
                self.conservative = True
            next_budget = self.schedule.after_failure(float(self.mechanism.budget))
        if next_budget <= 0.0:
            # The schedule bottomed out: take the guaranteed-safe
            # uniform limit without asking the solver.
            self._release_uniform()
            return True
        self.mechanism = session._provider.scaled(self.mechanism, next_budget)
        return False

    def _release_uniform(self) -> None:
        session = self.session
        mechanism, released_cell, released_column = session._uniform_release(self.cell)
        self.mechanism = mechanism
        self.released_cell = released_cell
        self.released_column = released_column
        self.forced_uniform = True

    def rollback(self) -> None:
        """Undo all visible effects of the in-flight step (solo scope)."""
        session = self.session
        for quantifier in session._quantifiers:
            quantifier.abort_prepare()
        session._generator.bit_generator.state = self.rng_checkpoint

    def commit(self) -> ReleaseRecord:
        """Seal the release: fold fronts, notify the provider, record."""
        session = self.session
        for quantifier in session._quantifiers:
            quantifier.commit(self.t, self.released_column)
        if session._emissions is not None:
            session._emissions.append(self.mechanism.emission_matrix())
        session._provider.after_release(self.t, self.mechanism, self.released_cell)
        record = ReleaseRecord(
            t=self.t,
            true_cell=self.cell,
            released_cell=self.released_cell,
            budget=float(self.mechanism.budget),
            n_attempts=self.attempts,
            conservative=self.conservative,
            forced_uniform=self.forced_uniform,
            elapsed_s=time.perf_counter() - self.t_start,
        )
        session._records.append(record)
        return record


class ReleaseSession:
    """One user's online release stream under Algorithm 1.

    Parameters
    ----------
    config:
        An :class:`EngineConfig` (or a prebuilt :class:`EngineCore` when
        many sessions share models, as :class:`SessionManager` does).
    rng:
        Seed or generator for mechanism sampling; the session owns its
        generator so interleaved sessions stay independently
        reproducible.
    session_id:
        Optional stable identifier (defaults to a fresh UUID hex).
    cache:
        Verdict cache override; defaults to the core's shared cache.
    """

    def __init__(
        self,
        config: EngineConfig | EngineCore,
        rng=None,
        session_id: str | None = None,
        cache: VerdictCache | None = None,
        _provider: MechanismProvider | None = None,
    ):
        core = config if isinstance(config, EngineCore) else EngineCore(config)
        self._core = core
        self._config = core.config
        self._provider = _provider if _provider is not None else core.new_provider()
        self._quantifiers = core.new_quantifiers()
        self._generator = resolve_rng(rng)
        self._cache = cache if cache is not None else core.cache
        self._records: list[ReleaseRecord] = []
        self._emissions: list[np.ndarray] | None = (
            [] if self._config.record_emissions else None
        )
        self._finished = False
        self.session_id = session_id or uuid.uuid4().hex

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        """The immutable engine configuration."""
        return self._config

    @property
    def t(self) -> int:
        """The next timestamp :meth:`step` would release (1-based)."""
        return len(self._records) + 1

    @property
    def horizon(self) -> int:
        """Release horizon ``T``."""
        return self._config.horizon

    @property
    def records(self) -> list[ReleaseRecord]:
        """Records released so far (copy)."""
        return list(self._records)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has sealed the session."""
        return self._finished

    def peek_budget(self) -> float:
        """Budget the next step's calibration would start from.

        Side-effect free: neither the provider state nor the RNG moves.
        """
        self._ensure_open()
        if self.t > self._config.horizon:
            raise SessionError(
                f"session exhausted its horizon T={self._config.horizon}"
            )
        return self._provider.base_budget(self.t)

    # ------------------------------------------------------------------
    # the framework loop, one timestamp per call
    # ------------------------------------------------------------------
    def step(self, true_cell: int) -> ReleaseRecord:
        """Calibrate, check and release one location (Algorithm 1).

        The calibration loop (:func:`_calibrate`) with a group of one;
        unlike a lockstep group, a solo step consults the verdict cache.
        A failed attempt (solver error, provider error, interrupt) rolls
        the session back to its committed boundary, so it stays
        steppable, checkpointable and deterministic on retry.

        Raises :class:`SessionError` past the horizon or after
        :meth:`finish`, :class:`QuantificationError` for a cell outside
        the map.
        """
        return _calibrate([_StepDriver(self, true_cell)], keyed=True)[0]

    def _step_key_prefixes(self) -> list[bytes] | None:
        """Per-event verdict-cache key prefixes for the prepared step.

        ``prefix + digest_array(column)`` is the full key: everything
        but the candidate column -- config fingerprint, event index and
        prepared-front digest -- is fixed for the whole timestamp, so it
        is digested and concatenated once per step instead of once per
        event per calibration attempt.
        """
        if self._cache is None:
            return None
        return [
            prefix + quantifier.prepared_digest() + b"|"
            for prefix, quantifier in zip(
                self._core.event_key_prefixes, self._quantifiers
            )
        ]

    def _uniform_release(self, cell: int):
        """Guaranteed-safe fallback: the uniform mechanism.

        It releases no information about the true location, so the
        conditions hold analytically -- no solver call needed.
        """
        mechanism = UniformMechanism(self._core.n_states)
        released_cell = int(mechanism.perturb(cell, self._generator))
        return mechanism, released_cell, mechanism.emission_column(released_cell)

    def finish(self) -> ReleaseLog:
        """Seal the session and return its release log."""
        self._ensure_open()
        self._finished = True
        return ReleaseLog(records=self._records, emission_matrices=self._emissions)

    def _ensure_open(self) -> None:
        if self._finished:
            raise SessionError(f"session {self.session_id!r} is finished")

    # ------------------------------------------------------------------
    # privacy checks (with optional verdict caching)
    # ------------------------------------------------------------------
    def _check_all(self, t, column, prefixes) -> SolverStatus:
        """Worst verdict across all events for one candidate at the fixed prior.

        Per-event Definition II.4 ratio checks, each O(m), so the loop
        returns at the first VIOLATED.  Every verdict round calls it for
        each fixed-prior candidate; ``prefixes=None`` (a multi-session
        group) skips the verdict cache, since the ratio check is cheaper
        than the digesting a cache key needs.
        """
        worst = SolverStatus.SAFE
        cache = self._cache if prefixes is not None else None
        column_digest = digest_array(column) if cache is not None else None
        for index, (quantifier, a) in enumerate(
            zip(self._quantifiers, self._core.a_vectors)
        ):
            status = None
            if cache is not None:
                status = cache.lookup(prefixes[index] + column_digest)
            if status is None:
                b, c = quantifier.candidate_bc(t, column)
                status = self._fixed_prior_verdict(a, b, c)
                if cache is not None:
                    cache.store(prefixes[index] + column_digest, status)
            if status is SolverStatus.VIOLATED:
                return SolverStatus.VIOLATED
            if status is SolverStatus.UNKNOWN:
                worst = SolverStatus.UNKNOWN
        return worst

    def _event_conditions(self, index, t, column):
        """One event's verdict fast path or its solver conditions.

        Returns ``(status, conditions)``: ``status`` is set when the
        O(m) sufficient certificate already decides the event, else the
        Eq. (15)/(16) :class:`RankOneCondition` pair that the verdict
        round solves.
        """
        quantifier = self._quantifiers[index]
        a = self._core.a_vectors[index]
        config = self._config
        b, c = quantifier.candidate_bc(t, column)
        if sufficient_safe(a, b, c, config.epsilon, config.solver.tolerance):
            # O(m) certificate: provably safe for every pi without
            # touching the quadratic program (conservative-release
            # fast path).
            return SolverStatus.SAFE, ()
        return None, privacy_conditions(a, b, c, config.epsilon)

    def _fixed_prior_verdict(self, a, b, c) -> SolverStatus:
        """Definition II.4 ratio check at the configured concrete prior."""
        config = self._config
        pi = config.prior
        prior_true = float(pi @ a)
        joint_true = float(pi @ b)
        joint_false = float(pi @ c) - joint_true
        if not 0.0 < prior_true < 1.0:
            raise QuantificationError(
                f"Pr(EVENT) = {prior_true:.6g} under the configured prior; "
                "the Definition II.4 ratio is undefined"
            )
        if joint_true <= 0.0 and joint_false <= 0.0:
            return SolverStatus.SAFE  # observation impossible either way
        if joint_true <= 0.0 or joint_false <= 0.0:
            return SolverStatus.VIOLATED  # one side certain, infinite ratio
        ratio = (joint_true / prior_true) / (joint_false / (1.0 - prior_true))
        bound = float(np.exp(config.epsilon))
        tol = 1.0 + config.solver.tolerance
        if ratio <= bound * tol and 1.0 / ratio <= bound * tol:
            return SolverStatus.SAFE
        return SolverStatus.VIOLATED

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def to_state(self) -> SessionState:
        """Snapshot the session between steps (suspend)."""
        self._ensure_open()
        return SessionState(
            committed_t=len(self._records),
            records=list(self._records),
            quantifiers=[q.state_dict() for q in self._quantifiers],
            provider=self._provider.state_dict(),
            rng=_rng_state(self._generator),
            emissions=None if self._emissions is None else list(self._emissions),
            session_id=self.session_id,
        )

    @classmethod
    def from_state(
        cls,
        config: EngineConfig | EngineCore,
        state: SessionState,
        cache: VerdictCache | None = None,
    ) -> "ReleaseSession":
        """Rebuild a suspended session (resume).

        ``config`` must match the one the state was produced under; the
        engine cannot verify that beyond shape checks, so treat the pair
        as a unit when parking sessions externally.
        """
        session = cls(config, session_id=state.session_id, cache=cache)
        if len(state.quantifiers) != len(session._quantifiers):
            raise SessionError(
                f"state has {len(state.quantifiers)} quantifiers, config "
                f"defines {len(session._quantifiers)} events"
            )
        if state.committed_t != len(state.records):
            raise SessionError(
                f"state committed_t={state.committed_t} disagrees with "
                f"{len(state.records)} records"
            )
        if state.committed_t > session._config.horizon:
            raise SessionError(
                f"state is at t={state.committed_t}, beyond horizon "
                f"{session._config.horizon}"
            )
        for quantifier, qstate in zip(session._quantifiers, state.quantifiers):
            quantifier.load_state_dict(qstate)
        session._provider.load_state_dict(state.provider)
        session._generator = _rng_from_state(state.rng)
        session._records = list(state.records)
        if session._emissions is not None:
            if state.emissions is None:
                raise SessionError(
                    "config records emissions but the state has none"
                )
            session._emissions = list(state.emissions)
        return session


# ----------------------------------------------------------------------
# the calibration loop (ReleaseSession.step and SessionManager.step_many)
# ----------------------------------------------------------------------
def step_sessions_lockstep(
    sessions: list[ReleaseSession], true_cells: list[int]
) -> list[ReleaseRecord]:
    """Step a same-phase group of sessions as one batched pipeline.

    All sessions must share one :class:`EngineCore` and sit at the same
    timestamp ``t``.  The group runs :func:`_calibrate`, the loop a solo
    :meth:`ReleaseSession.step` runs as a group of one, through its
    three batched layers:

    1. *prepare* -- every event's fronts across all sessions propagate
       through the shared lifted chain in one stacked matmul
       (:func:`repro.core.joint.prepare_many`);
    2. *calibration rounds* -- sessions advance in lockstep; each round
       samples one candidate per still-calibrating session (from that
       session's own RNG, in session order) and, under the worst-case
       prior, funnels every session's Eq. (15)/(16) conditions into a
       single batched solver call
       (:func:`repro.core.qp.solve_conditions_batch`);
    3. *commit* -- releases fold into the fronts session by session.

    Each session makes the same RNG draws, schedule calls and fallbacks
    as a solo step, and solver verdicts are pure functions of the
    assembled conditions, so the resulting records and release streams
    are bit-identical to stepping each session on its own.  Two
    deliberate differences, invisible in the stream:

    * the group does not consult the shared verdict cache -- bulk
      solving replaces per-session memoization, and skipping the front
      digests is a large part of the batched win;
    * with ``time_limit_s`` set, wall-clock UNKNOWNs may fall
      differently than under solo stepping (the same caveat the verdict
      cache documents); deterministic configurations (the default, and
      any ``work_limit``) are unaffected.

    On any error during calibration every session in the group is
    rolled back to its committed boundary (fronts and RNG), so the call
    is all-or-nothing up to the commit phase.
    """
    if not sessions:
        return []
    if len(true_cells) != len(sessions):
        raise SessionError(
            f"{len(sessions)} sessions but {len(true_cells)} cells"
        )
    core = sessions[0]._core
    for session in sessions:
        if session._core is not core:
            raise SessionError(
                "step_sessions_lockstep requires sessions sharing one EngineCore"
            )
    t = sessions[0].t
    for session in sessions:
        if session.t != t:
            raise SessionError(
                "step_sessions_lockstep requires same-phase sessions; got "
                f"t={session.t} and t={t}"
            )
    return _calibrate(
        [_StepDriver(session, cell) for session, cell in zip(sessions, true_cells)]
    )


def _calibrate(drivers: list[_StepDriver], keyed: bool = False) -> list[ReleaseRecord]:
    """Algorithm 1 for a same-phase group: the engine's one calibration loop.

    Prepares every event's fronts through :func:`prepare_many`, then runs
    rounds: each still-calibrating driver samples a candidate, in group
    order, and one :func:`_verdict_round` checks them all; each rejected
    driver moves on to its schedule's next budget.  ``keyed`` (a solo
    step) gives each driver its verdict-cache key prefixes first.  Any
    error rolls every driver back to its committed boundary; otherwise
    all commit, in order.
    """
    t = drivers[0].t
    for index in range(len(drivers[0].session._core.models)):
        prepare_many([driver.session._quantifiers[index] for driver in drivers], t)
    try:
        for driver in drivers:
            if keyed:
                driver.prefixes = driver.session._step_key_prefixes()
            driver.begin()
        active = drivers
        while active:
            # A driver past max_calibrations releases uniform from
            # next_candidate and drops out of the round unchecked.
            checking = [
                driver for driver in active if driver.next_candidate() is not None
            ]
            verdicts = _verdict_round(checking, t)
            active = [
                driver
                for driver, verdict in zip(checking, verdicts)
                if not driver.apply_verdict(verdict)
            ]
    except BaseException:
        for driver in drivers:
            driver.rollback()
        raise
    return [driver.commit() for driver in drivers]


def _verdict_round(drivers: list[_StepDriver], t: int) -> list[SolverStatus]:
    """One calibration round's verdicts, one batched solver call.

    Fixed-prior candidates resolve with :meth:`ReleaseSession._check_all`'s
    ratio loop (no solver involved).  Worst-case candidates contribute
    the events that neither the verdict cache nor the O(m) certificate
    decides to a single :func:`_solve_condition_pairs` call, and
    recombine per event, then per candidate.  A driver with cache-key
    prefixes (a solo step) looks each event up first and stores the
    verdicts it computed; a driver without skips the cache.
    """
    verdicts: list[SolverStatus | None] = [None] * len(drivers)
    pairs: list = []
    # (position, per-event statuses, (event, pair slot)s, keys, events to store)
    assemblies: list[tuple] = []
    for position, driver in enumerate(drivers):
        session = driver.session
        if session._config.prior_mode == "fixed":
            verdicts[position] = session._check_all(t, driver.column, driver.prefixes)
            continue
        keys = None
        if driver.prefixes is not None:
            column_digest = digest_array(driver.column)
            keys = [prefix + column_digest for prefix in driver.prefixes]
        statuses: list[SolverStatus | None] = [None] * len(session._quantifiers)
        slots: list[tuple[int, int]] = []
        computed: list[int] = []
        for index in range(len(statuses)):
            if keys is not None:
                statuses[index] = session._cache.lookup(keys[index])
                if statuses[index] is not None:
                    continue
                computed.append(index)
            status, event_conditions = session._event_conditions(
                index, t, driver.column
            )
            if status is not None:
                statuses[index] = status
            else:
                slots.append((index, len(pairs)))
                pairs.append(event_conditions)
        assemblies.append((position, statuses, slots, keys, computed))
    pair_statuses = []
    if pairs:
        pair_statuses = _solve_condition_pairs(pairs, drivers[0].session._config.solver)
    for position, statuses, slots, keys, computed in assemblies:
        for index, slot in slots:
            statuses[index] = pair_statuses[slot]
        for index in computed:
            drivers[position].session._cache.store(keys[index], statuses[index])
        verdicts[position] = _combine_statuses(statuses)
    return verdicts
