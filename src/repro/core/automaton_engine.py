"""Generalized event engine via compiled automata (extension).

The paper's two-world method handles PRESENCE and PATTERN.  This engine
handles *any* Boolean expression over (location, time) predicates by
lifting the Markov chain with the layered automaton produced by
:func:`repro.events.compiler.compile_event` (Fig. 1(d)-(f) events
included).  PRESENCE/PATTERN compile to <= 2 live states per layer, so
this engine subsumes -- and is cross-validated against -- the two-world
construction.

State convention: ``S_t`` is the automaton state after consuming every
window location up to ``min(t, end)``; before the window it is the single
initial state, after the window it is frozen.  The pair ``(S_t, u_t)`` is
Markov, which is all the forward/backward recursions need.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_array, check_probability_vector, check_timestamp
from ..errors import EventError, QuantificationError
from ..events.compiler import CompiledEvent, compile_event
from ..events.events import SpatiotemporalEvent
from ..events.expressions import Expression
from ..markov.transition import as_chain


class AutomatonModel:
    """Prior and joint probabilities for an arbitrary compiled event.

    Parameters
    ----------
    chain:
        Mobility model.
    event:
        An expression, a PRESENCE/PATTERN event, or a pre-compiled
        :class:`CompiledEvent`.
    horizon:
        Release horizon ``T`` (must cover the event window).
    """

    def __init__(self, chain, event, horizon: int):
        self._chain = as_chain(chain)
        if isinstance(event, CompiledEvent):
            self._compiled = event
        elif isinstance(event, SpatiotemporalEvent):
            self._compiled = compile_event(event.to_expression())
        elif isinstance(event, Expression):
            self._compiled = compile_event(event)
        else:
            raise EventError(f"cannot interpret event: {event!r}")
        self._horizon = check_timestamp(horizon, name="horizon")
        if self._compiled.end > self._horizon:
            raise EventError(
                f"event ends at t={self._compiled.end}, beyond horizon "
                f"T={self._horizon}"
            )
        m = self._chain.n_states
        for layer in self._compiled.layers:
            for cell in layer.mentioned_cells:
                if cell >= m:
                    raise EventError(
                        f"event mentions cell {cell}, chain has only {m} states"
                    )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledEvent:
        """The layered automaton."""
        return self._compiled

    @property
    def n_states(self) -> int:
        """Number of map cells ``m``."""
        return self._chain.n_states

    @property
    def start(self) -> int:
        """Event window start."""
        return self._compiled.start

    @property
    def end(self) -> int:
        """Event window end."""
        return self._compiled.end

    def _layer(self, t: int):
        return self._compiled.layers[t - self._compiled.start]

    def _consume(self, rows: np.ndarray, t: int) -> np.ndarray:
        """Automaton step at window timestamp t.

        ``rows`` has shape ``(k_in, m)``: probability mass (or any linear
        payload) per (state, location at time t, before consuming u_t).
        Returns ``(k_out, m)`` with the mass re-binned by next state.
        """
        layer = self._layer(t)
        k_out = self._compiled.n_states_per_layer[t - self._compiled.start + 1]
        out = np.zeros((k_out, rows.shape[1]), dtype=np.float64)
        for state in range(rows.shape[0]):
            default = layer.defaults[state]
            out[default] += rows[state]
            for cell, nxt in layer.transitions[state].items():
                if nxt != default:
                    out[nxt, cell] += rows[state, cell]
                    out[default, cell] -= rows[state, cell]
        return out

    # ------------------------------------------------------------------
    # acceptance probabilities (pi-free backward pass)
    # ------------------------------------------------------------------
    def acceptance_table(self) -> list[np.ndarray]:
        """``z_t[q, c] = Pr(EVENT | S_t = q, u_t = c)`` for t = 1..end.

        Computed backward from the final layer (where acceptance is the
        0/1 accepting flag).  Entry ``t-1`` of the returned list has shape
        ``(k_t, m)`` with ``k_t`` the live state count at time t.
        """
        start, end = self.start, self.end
        m = self.n_states
        tables: list[np.ndarray | None] = [None] * end
        final = np.array(
            [1.0 if acc else 0.0 for acc in self._compiled.accepting],
            dtype=np.float64,
        )
        tables[end - 1] = np.repeat(final[:, None], m, axis=1)
        for t in range(end - 1, 0, -1):
            nxt = tables[t]  # z_{t+1}: (k_{t+1}, m)
            base = self._chain.array_at(t)
            if start <= t + 1 <= end:
                # The automaton consumes u_{t+1}: route each destination
                # cell's acceptance through the layer transition.
                layer = self._layer(t + 1)
                k_now = self._compiled.n_states_per_layer[t + 1 - start]
                z_now = np.empty((k_now, m), dtype=np.float64)
                for state in range(k_now):
                    default = layer.defaults[state]
                    routed = nxt[default].copy()
                    for cell, target in layer.transitions[state].items():
                        routed[cell] = nxt[target, cell]
                    z_now[state] = base @ routed
                tables[t - 1] = z_now
            else:
                tables[t - 1] = nxt @ base.T
        return [table for table in tables if table is not None]

    def prior_vector(self) -> np.ndarray:
        """``a[i] = Pr(EVENT | u_1 = s_i)`` (length m)."""
        tables = self.acceptance_table()
        z1 = tables[0]
        m = self.n_states
        if self.start > 1:
            return z1[0].copy()
        # start == 1: the state at t=1 already consumed u_1.
        layer = self._compiled.layers[0]
        out = np.empty(m, dtype=np.float64)
        for cell in range(m):
            state = layer.next_state(0, cell)
            out[cell] = z1[state, cell]
        return out

    def prior_probability(self, pi) -> float:
        """``Pr(EVENT)`` under initial distribution ``pi``."""
        dist = check_probability_vector(pi, "initial distribution")
        if dist.size != self.n_states:
            raise QuantificationError(
                f"pi has {dist.size} entries, map has {self.n_states} cells"
            )
        return float(dist @ self.prior_vector())

    # ------------------------------------------------------------------
    # joints (forward pass with emissions)
    # ------------------------------------------------------------------
    def _initial_front(self, pi: np.ndarray) -> np.ndarray:
        m = self.n_states
        if self.start == 1:
            layer = self._compiled.layers[0]
            k = self._compiled.n_states_per_layer[1]
            front = np.zeros((k, m), dtype=np.float64)
            for cell in range(m):
                front[layer.next_state(0, cell), cell] = pi[cell]
            return front
        return pi[None, :].copy()

    def joint_probability(self, pi, emission_columns, upto_t: int | None = None) -> float:
        """``Pr(EVENT, o_1..o_t)`` via the automaton-lifted forward pass."""
        m = self.n_states
        dist = check_probability_vector(pi, "initial distribution")
        if dist.size != m:
            raise QuantificationError(f"pi has {dist.size} entries, map has {m}")
        cols = as_float_array(emission_columns, "emission columns")
        if cols.ndim != 2 or cols.shape[1] != m:
            raise QuantificationError(
                f"emission columns must be (T', {m}), got {cols.shape}"
            )
        t_obs = cols.shape[0] if upto_t is None else int(upto_t)
        if not 1 <= t_obs <= cols.shape[0]:
            raise QuantificationError(f"upto_t={upto_t} outside [1, {cols.shape[0]}]")

        start, end = self.start, self.end
        tables = self.acceptance_table()

        front = self._initial_front(dist)
        front = front * cols[0][None, :]
        t = 1
        while t < t_obs:
            base = self._chain.array_at(t)
            front = front @ base
            t += 1
            if start <= t <= end:
                # Entering timestamp t consumes u_t (layer t - start);
                # t == 1 never reaches here (handled by the initial front).
                front = self._consume(front, t)
            front = front * cols[t - 1][None, :]

        if t_obs >= end:
            # Event fully resolved: final-layer states carry acceptance
            # (after `end` the state set is frozen at the final layer).
            accept = np.array(
                [1.0 if acc else 0.0 for acc in self._compiled.accepting]
            )
            return float(accept @ front.sum(axis=1))
        # Event not yet resolved: weight by acceptance probabilities.
        z = tables[t_obs - 1]
        if z.shape[0] != front.shape[0]:
            raise QuantificationError(
                "internal error: state-count mismatch between forward front "
                f"({front.shape[0]}) and acceptance table ({z.shape[0]}) at t={t_obs}"
            )
        return float((front * z).sum())

    def observation_probability(
        self, pi, emission_columns, upto_t: int | None = None
    ) -> float:
        """``Pr(o_1..o_t)`` (event-free forward pass)."""
        m = self.n_states
        dist = check_probability_vector(pi, "initial distribution")
        cols = as_float_array(emission_columns, "emission columns")
        t_obs = cols.shape[0] if upto_t is None else int(upto_t)
        current = dist * cols[0]
        for t in range(2, t_obs + 1):
            current = (current @ self._chain.array_at(t - 1)) * cols[t - 1]
        return float(current.sum())
