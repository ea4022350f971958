"""Multi-session fan-out: one engine serving many concurrent streams.

:class:`SessionManager` drives any number of :class:`ReleaseSession`\\ s
over shared :class:`~repro.engine.session.EngineCore`\\ s, which buys

* the two-world models built once per *scenario*, not per session (the
  dominant per-session start-up cost);
* one :class:`~repro.engine.cache.VerdictCache` of solver verdicts per
  scenario, keyed on (front digest, emission-column digest, config
  fingerprint), so any session reaching a state another session already
  checked skips the quadratic program entirely -- e.g. a million users
  all at their first timestamps share a handful of verdicts;
* a shared mechanism ladder for Algorithm 2 (the static provider
  memoizes every rescaled budget's emission matrix).

Multi-tenancy: the manager interns engine cores by *scenario digest*
(see :mod:`repro.scenario`).  Sessions opened with the same
:class:`~repro.scenario.ScenarioSpec` share one core -- models, ladder
and verdict cache; sessions with different digests get disjoint cores
in the same manager, so one fleet can mix maps, mechanisms and privacy
levels.  A manager built from a plain :class:`EngineConfig` is the
degenerate single-core case, unchanged from before scenarios existed.

Typical service loop::

    manager = SessionManager(spec)               # or an EngineConfig
    manager.open("user-1", rng=1)                # the default scenario
    manager.open("user-2", rng=2, scenario=other_spec)
    records = manager.step_all({"user-1": 17, "user-2": 3})
    log = manager.finish("user-1")
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..errors import ScenarioError, SessionError
from .cache import CacheStats, VerdictCache
from .config import EngineConfig, SessionBuilder
from .records import ReleaseLog, ReleaseRecord
from .session import (
    EngineCore,
    ReleaseSession,
    SessionState,
    step_sessions_lockstep,
)


class SessionManager:
    """Owns a fleet of sessions sharing models, caches and mechanisms.

    Parameters
    ----------
    config:
        An :class:`EngineConfig`, a :class:`SessionBuilder` (built
        immediately), or a :class:`~repro.scenario.ScenarioSpec`
        (compiled immediately; its digest keys the default core, so a
        checkpoint carrying the same spec restores onto it).
    cache_size:
        Capacity of each scenario's shared verdict cache; ``0`` disables
        caching (every check hits the solver, as the legacy batch API
        does).
    max_scenarios:
        Interned-core bound: registering a scenario beyond this many
        cores first evicts idle ones (no open sessions, not the
        default), oldest registration first.  An evicted scenario is
        simply recompiled if it returns; cores with open sessions are
        never evicted, so a fleet that genuinely uses more than
        ``max_scenarios`` scenarios at once grows past the bound rather
        than failing.
    """

    def __init__(
        self, config, cache_size: int = 131_072, max_scenarios: int = 64
    ):
        self._cache_size = int(cache_size)
        if int(max_scenarios) < 1:
            raise ScenarioError(
                f"max_scenarios must be >= 1, got {max_scenarios!r}"
            )
        self._max_scenarios = int(max_scenarios)
        # digest -> (EngineCore, ScenarioSpec): one interned core per
        # distinct scenario; sessions sharing a digest share everything.
        self._cores: dict[str, tuple[EngineCore, object]] = {}
        self._sessions: dict[str, ReleaseSession] = {}
        # sid -> scenario digest (None = the default core).
        self._session_digests: dict[str, str | None] = {}
        # Sessions opened with an *explicit* scenario (or resumed from a
        # state carrying one): their checkpoints embed the spec even
        # when its digest happens to equal the manager's default, so the
        # binding survives a restart whose default config differs.
        self._bound: set[str] = set()
        self._default_digest: str | None = None
        if isinstance(config, SessionBuilder):
            config = config.build_config()
        if isinstance(config, EngineConfig):
            self._core = self._new_core(config)
        else:
            self._default_digest = self.register_scenario(config)
            self._core = self._cores[self._default_digest][0]

    def _new_core(self, config: EngineConfig) -> EngineCore:
        cache = VerdictCache(self._cache_size) if self._cache_size > 0 else None
        return EngineCore(config, cache=cache)

    # ------------------------------------------------------------------
    # scenario interning
    # ------------------------------------------------------------------
    def register_scenario(self, spec) -> str:
        """Intern a scenario; returns its digest (compiles at most once).

        ``spec`` is a :class:`~repro.scenario.ScenarioSpec` or its JSON
        dict form.  A digest already interned returns immediately
        without touching the existing core, so re-registration is free
        and never invalidates open sessions.
        """
        from ..scenario.spec import ScenarioSpec

        if isinstance(spec, Mapping):
            spec = ScenarioSpec.from_json(dict(spec))
        if not isinstance(spec, ScenarioSpec):
            raise ScenarioError(
                f"expected a ScenarioSpec or its JSON form, got "
                f"{type(spec).__name__}"
            )
        digest = spec.digest()
        if digest not in self._cores:
            if len(self._cores) >= self._max_scenarios:
                self._evict_idle_cores()
            compiled = spec.compile()
            self._cores[digest] = (self._new_core(compiled.engine_config), spec)
        return digest

    def _evict_idle_cores(self) -> None:
        """Drop interned cores no open session uses (oldest first).

        Bounds the models+cache footprint of a manager fed many distinct
        scenarios over its lifetime (e.g. a server running with
        ``--allow-any-scenario``).  The default core and any core with
        open sessions are untouchable; suspended sessions are safe --
        their checkpoints embed the spec, so a later resume recompiles.
        """
        in_use = set(self._session_digests.values())
        for digest in list(self._cores):
            if len(self._cores) < self._max_scenarios:
                return
            if digest == self._default_digest or digest in in_use:
                continue
            del self._cores[digest]

    def scenario_digests(self) -> list[str]:
        """Digests of every interned scenario (insertion order)."""
        return list(self._cores)

    def scenario_of(self, session_id: str) -> str | None:
        """The session's scenario digest (``None`` = default config)."""
        return self._session_digests[self._require(session_id)]

    def _core_for(self, scenario) -> tuple[EngineCore, str | None]:
        if scenario is None:
            return self._core, self._default_digest
        if isinstance(scenario, str):
            entry = self._cores.get(scenario)
            if entry is None:
                raise ScenarioError(
                    f"scenario digest {scenario!r} is not registered with "
                    "this manager; register_scenario(spec) first"
                )
            return entry[0], scenario
        digest = self.register_scenario(scenario)
        return self._cores[digest][0], digest

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        """The default engine configuration."""
        return self._core.config

    @property
    def n_states(self) -> int:
        """Default scenario's cell count ``m`` (valid cells ``0..m-1``).

        Per-session values (scenarios may use different maps) come from
        :meth:`n_states_of`.
        """
        return self._core.n_states

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    @property
    def session_ids(self) -> list[str]:
        """Open sessions, in creation order."""
        return list(self._sessions)

    def open(
        self, session_id: str | None = None, rng=None, scenario=None
    ) -> str:
        """Create a session; returns its id (fresh UUID when omitted).

        ``scenario`` selects the session's release setting: ``None``
        uses the manager's default configuration, a
        :class:`~repro.scenario.ScenarioSpec` (or its JSON dict) is
        interned by digest, and a digest string refers to an
        already-registered scenario.
        """
        core, digest = self._core_for(scenario)
        session = ReleaseSession(core, rng=rng, session_id=session_id)
        if session.session_id in self._sessions:
            raise SessionError(f"session {session.session_id!r} already open")
        self._sessions[session.session_id] = session
        self._session_digests[session.session_id] = digest
        if scenario is not None:
            self._bound.add(session.session_id)
        return session.session_id

    def session(self, session_id: str) -> ReleaseSession:
        """The live session object (advanced use; prefer the manager API)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"no open session {session_id!r}") from None

    def horizon_of(self, session_id: str) -> int:
        """The session's release horizon ``T`` (scenarios may differ)."""
        return self._sessions[self._require(session_id)].horizon

    def n_states_of(self, session_id: str) -> int:
        """The session's map size ``m`` (scenarios may differ)."""
        return self._sessions[self._require(session_id)]._core.n_states

    def finish(self, session_id: str) -> ReleaseLog:
        """Seal a session, drop it from the fleet, return its log."""
        log = self._sessions.pop(self._require(session_id)).finish()
        self._session_digests.pop(session_id, None)
        self._bound.discard(session_id)
        return log

    def finish_all(self) -> dict[str, ReleaseLog]:
        """Seal every open session; logs keyed by session id."""
        logs = {sid: session.finish() for sid, session in self._sessions.items()}
        self._sessions.clear()
        self._session_digests.clear()
        self._bound.clear()
        return logs

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, session_id: str, true_cell: int) -> ReleaseRecord:
        """Release one location for one session."""
        return self._sessions[self._require(session_id)].step(true_cell)

    def validate_step(self, session_id: str, true_cell) -> int:
        """Check one step request without executing it.

        Raises :class:`SessionError` when the session is not open, has
        exhausted its horizon, or the cell is outside the session's own
        map; returns the cell as an int.  Shared by :meth:`step_all`,
        :meth:`step_many` and :meth:`step_batch` so all entry points
        reject a bad request identically.
        """
        session = self._sessions[self._require(session_id)]
        if session.t > session.horizon:
            raise SessionError(
                f"session {session_id!r} exhausted its horizon "
                f"T={session.horizon}"
            )
        cell = int(true_cell)
        n_states = session._core.n_states
        if not 0 <= cell < n_states:
            raise SessionError(
                f"cell {cell} for session {session_id!r} out of range "
                f"[0, {n_states})"
            )
        return cell

    def step_all(self, true_cells: Mapping[str, int]) -> dict[str, ReleaseRecord]:
        """Release one location for many sessions in one call.

        Sessions are stepped one at a time with :meth:`step`, in the
        mapping's order: each runs the engine's one calibration loop as
        a group of one, which consults the scenario's verdict cache, and
        shares its mechanism ladder.  Independently seeded sessions
        release different cells, so their fronts diverge after the first
        step and the cache rarely hits (9.5% of lookups on the perf
        ledger's engine-solo fleet); :meth:`step_many` is the batched
        path.

        The whole batch is validated (ids open, horizons not exceeded,
        cells in range) before any session steps, so a bad entry raises
        without advancing anyone -- the call is safe to retry.
        """
        batch = []
        for sid, cell in true_cells.items():
            cell = self.validate_step(sid, cell)
            batch.append((self._sessions[sid], cell))
        return {
            session.session_id: session.step(cell) for session, cell in batch
        }

    def step_many(self, true_cells: Mapping[str, int]) -> dict[str, ReleaseRecord]:
        """Release one location for many sessions as batched pipelines.

        The batched counterpart of :meth:`step_all`: sessions sharing a
        scenario core *and* a timestamp (the common case -- a fleet
        driven in lockstep, or a service micro-batching concurrent step
        requests) are grouped into one
        :func:`~repro.engine.session.step_sessions_lockstep` call, which
        runs the same calibration loop as a solo :meth:`step` over the
        whole group: it propagates all their fronts through the
        scenario's shared lifted chain in one stacked matmul and
        funnels each calibration round's Theorem IV.1 checks into one
        batched solver call.  Sessions at distinct timestamps -- or on
        different scenarios -- form separate groups, so mixed fleets
        still batch within each (scenario, phase) cohort.

        Each session's records and release stream are bit-identical to
        :meth:`step_all`'s (same RNG consumption, same verdicts); see
        :func:`~repro.engine.session.step_sessions_lockstep` for the two
        stream-invisible differences (a group does not consult the
        verdict cache, and wall-clock UNKNOWNs under ``time_limit_s``).

        The whole batch is validated before any session steps; a bad
        entry raises without advancing anyone.  A mid-flight error rolls
        every session of the failing group back to its committed
        boundary, but the groups before it stay committed: their
        sessions have advanced.  :meth:`step_batch` keeps each member's
        outcome apart.
        """
        valid = {
            sid: self.validate_step(sid, cell) for sid, cell in true_cells.items()
        }
        records: dict[str, ReleaseRecord] = {}
        for group in self._lockstep_groups(valid):
            sessions = [self._sessions[sid] for sid in group]
            for session, record in zip(
                sessions, step_sessions_lockstep(sessions, list(group.values()))
            ):
                records[session.session_id] = record
        # Return in the caller's order, like step_all.
        return {sid: records[sid] for sid in true_cells}

    def step_batch(
        self, true_cells: Mapping[str, int]
    ) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
        """Step a served batch, each member's outcome apart: ``(records,
        errors)`` by session id.  A member that fails validation fails
        alone; the rest step one :meth:`step_many` call per lockstep
        group.  A failed group was rolled back, so its members re-run
        solo, except one it had committed (a commit-phase error), which
        gets the group's error and never steps twice."""
        errors: dict[str, BaseException] = {}
        valid: dict[str, int] = {}
        for sid, cell in true_cells.items():
            try:
                valid[sid] = self.validate_step(sid, cell)
            except Exception as error:  # noqa: BLE001 - isolate per member
                errors[sid] = error
        records: dict[str, ReleaseRecord] = {}
        for group in self._lockstep_groups(valid):
            t = self._sessions[next(iter(group))].t
            try:
                records.update(self.step_many(group))
            except Exception as group_error:  # noqa: BLE001 - isolate per member
                for sid, cell in group.items():
                    session = self._sessions[sid]
                    if session.t != t:
                        # Committed before a commit-phase failure: stepping
                        # it again would release a second timestamp.
                        errors[sid] = group_error
                        continue
                    try:
                        records[sid] = session.step(cell)
                    except Exception as error:  # noqa: BLE001 - this member's
                        errors[sid] = error
        return records, errors

    def _lockstep_groups(self, valid: Mapping[str, int]) -> list[dict[str, int]]:
        """Validated steps grouped by (scenario core, timestamp)."""
        groups: dict[tuple[int, int], dict[str, int]] = {}
        for sid, cell in valid.items():
            session = self._sessions[sid]
            groups.setdefault((id(session._core), session.t), {})[sid] = cell
        return list(groups.values())

    def peek_budget(self, session_id: str) -> float:
        """Budget the session's next step would start calibrating from."""
        return self._sessions[self._require(session_id)].peek_budget()

    def released_columns(self, session_ids: Iterable[str] | None = None) -> np.ndarray:
        """Latest released cell per session as one integer vector.

        ``-1`` for sessions that have not stepped yet; a cheap bulk read
        for monitoring dashboards (O(n_sessions), no record copies).
        """
        ids = list(self._sessions) if session_ids is None else list(session_ids)
        out = np.full(len(ids), -1, dtype=np.int64)
        for i, sid in enumerate(ids):
            records = self._sessions[self._require(sid)]._records
            if records:
                out[i] = records[-1].released_cell
        return out

    # ------------------------------------------------------------------
    # suspend / resume
    # ------------------------------------------------------------------
    def _attach_scenario(self, session_id: str, state: SessionState) -> SessionState:
        digest = self._session_digests.get(session_id)
        # Embed the spec for every explicitly-bound session (even one
        # whose digest equals the current default -- a restarted manager
        # may have a *different* default) and for any session on a
        # non-default core.  Sessions opened without a scenario stay
        # unbound and restore onto the restoring manager's default,
        # which is the pre-scenario behaviour.
        if digest is not None and (
            session_id in self._bound or digest != self._default_digest
        ):
            state.scenario = {
                "digest": digest,
                "spec": self._cores[digest][1].to_json(),
            }
        return state

    def checkpoint(self, session_id: str) -> SessionState:
        """Snapshot a session without closing it.

        A session on a non-default scenario embeds its spec and digest
        in the state, so it can be restored by any manager -- including
        a shard worker that has never seen the scenario (it
        re-materializes the models from the embedded spec).  Sessions on
        the default configuration checkpoint without a binding and bind
        to the restoring manager's default, exactly as before scenarios
        existed.
        """
        state = self._sessions[self._require(session_id)].to_state()
        return self._attach_scenario(session_id, state)

    def suspend(self, session_id: str) -> SessionState:
        """Snapshot a session and evict it from the fleet."""
        state = self.checkpoint(session_id)
        del self._sessions[session_id]
        self._session_digests.pop(session_id, None)
        self._bound.discard(session_id)
        return state

    def resume(self, state: SessionState) -> str:
        """Re-open a suspended session from its state.

        A state carrying a scenario binding re-materializes (or reuses,
        when the digest is already interned) the right engine core; the
        recorded digest is verified against the embedded spec, so a
        tampered or mismatched checkpoint fails loudly.
        """
        if state.session_id in self._sessions:
            raise SessionError(f"session {state.session_id!r} already open")
        scenario = getattr(state, "scenario", None)
        if scenario is None:
            core, digest = self._core, self._default_digest
        else:
            from ..scenario.spec import ScenarioSpec

            try:
                spec_json = scenario["spec"]
                recorded = scenario["digest"]
            except (KeyError, TypeError):
                raise SessionError(
                    f"session state {state.session_id!r} has a malformed "
                    "scenario binding (expected {'digest', 'spec'})"
                ) from None
            # Parse (cheap) and verify the recorded digest *before*
            # compiling: a tampered or corrupted checkpoint must not
            # cost -- or permanently intern -- an O(m^2) model build.
            spec = ScenarioSpec.from_json(spec_json)
            if spec.digest() != recorded:
                raise SessionError(
                    f"session state {state.session_id!r} records scenario "
                    f"digest {recorded} but its spec digests to "
                    f"{spec.digest()}; refusing to restore a mismatched "
                    "checkpoint"
                )
            digest = self.register_scenario(spec)
            core = self._cores[digest][0]
        session = ReleaseSession.from_state(core, state)
        self._sessions[session.session_id] = session
        self._session_digests[session.session_id] = digest
        if scenario is not None:
            self._bound.add(session.session_id)
        return session.session_id

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> CacheStats | None:
        """Verdict-cache counters summed over every scenario core.

        ``None`` when caching is disabled.  The default core and any
        interned cores are all counted (each scenario owns its own
        cache, so the sum is exact, never double-counted).
        """
        caches = []
        if self._default_digest is None and self._core.cache is not None:
            caches.append(self._core.cache)
        caches.extend(
            core.cache
            for core, _ in self._cores.values()
            if core.cache is not None
        )
        if not caches:
            return None
        totals = None
        for cache in caches:
            stats = cache.stats()
            if totals is None:
                totals = stats
            else:
                totals = CacheStats(
                    hits=totals.hits + stats.hits,
                    misses=totals.misses + stats.misses,
                    evictions=totals.evictions + stats.evictions,
                    size=totals.size + stats.size,
                    maxsize=totals.maxsize + stats.maxsize,
                )
        return totals

    def _require(self, session_id: str) -> str:
        if session_id not in self._sessions:
            raise SessionError(f"no open session {session_id!r}")
        return session_id
