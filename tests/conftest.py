"""Shared fixtures: small maps, chains and events used across the suite."""

from __future__ import annotations

import asyncio
import inspect
import logging
import os

import numpy as np
import pytest

from repro.events.events import PatternEvent, PresenceEvent
from repro.geo.grid import GridMap
from repro.geo.regions import Region
from repro.markov.synthetic import gaussian_kernel_transitions
from repro.markov.transition import TransitionMatrix


class _ErrorRecords(logging.Handler):
    """Collects the ERROR records a logger emits."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def fail_on_asyncio_errors():
    """Fail any test during which the asyncio loop logged an error.

    The loop logs what no caller sees: an exception escaping a stream
    server's connection handler (``Unhandled exception in
    client_connected_cb``), a callback that raised (``Exception in
    callback ...``), a task whose exception nobody read (``Task
    exception was never retrieved``).
    """
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "the asyncio loop logged errors:\n"
            + "\n".join(handler.format(record) for record in handler.records),
            pytrace=False,
        )


async def wait_closed_3121(self):
    """``asyncio.base_events.Server.wait_closed`` as of Python 3.12.1.

    It returns only once the server is closed *and* every connection to
    it has dropped; Python 3.11 returns as soon as the server is closed.
    """
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter


@pytest.fixture
def py3121_wait_closed(monkeypatch, tmp_path):
    """Give ``Server.wait_closed`` its Python 3.12.1 body, so a server
    that waits for its peers to hang up hangs on 3.11 too.

    The patch reaches child processes started with the test's
    environment (``repro serve``, ``repro worker``) through a
    ``sitecustomize`` module on ``PYTHONPATH``.
    """
    monkeypatch.setattr(asyncio.base_events.Server, "wait_closed", wait_closed_3121)
    site = tmp_path / "py3121_site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import asyncio.base_events\n\n\n"
        + inspect.getsource(wait_closed_3121)
        + "\n\nasyncio.base_events.Server.wait_closed = wait_closed_3121\n"
    )
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", str(site) + (os.pathsep + inherited if inherited else "")
    )


#: The paper's Example III.1 / Appendix C transition matrix.
PAPER_M = np.array(
    [
        [0.1, 0.2, 0.7],
        [0.4, 0.1, 0.5],
        [0.0, 0.1, 0.9],
    ]
)


@pytest.fixture
def paper_chain() -> TransitionMatrix:
    """The 3-state chain of the paper's worked examples."""
    return TransitionMatrix(PAPER_M)


@pytest.fixture
def paper_presence() -> PresenceEvent:
    """Example III.1: PRESENCE at {s1, s2} during t = 3..4."""
    return PresenceEvent(Region.from_cells(3, [0, 1]), start=3, end=4)


@pytest.fixture
def paper_pattern() -> PatternEvent:
    """A small PATTERN on the 3-state map."""
    return PatternEvent(
        [
            Region.from_cells(3, [0, 1]),
            Region.from_cells(3, [1, 2]),
            Region.from_cells(3, [0]),
        ],
        start=2,
    )


@pytest.fixture
def grid5() -> GridMap:
    """A 5x5 km grid."""
    return GridMap(5, 5, cell_size_km=1.0)


@pytest.fixture
def chain5(grid5) -> TransitionMatrix:
    """Gaussian-kernel chain on the 5x5 grid."""
    return gaussian_kernel_transitions(grid5, sigma=1.0)


@pytest.fixture
def uniform5(grid5) -> np.ndarray:
    """Uniform initial distribution on the 5x5 grid."""
    return np.full(grid5.n_cells, 1.0 / grid5.n_cells)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


def random_chain(n_states: int, rng: np.random.Generator) -> TransitionMatrix:
    """A random strictly-positive chain (helper, not a fixture)."""
    raw = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    return TransitionMatrix(raw / raw.sum(axis=1, keepdims=True))


def random_emission(n_states: int, rng: np.random.Generator) -> np.ndarray:
    """A random strictly-positive emission matrix (helper)."""
    raw = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    return raw / raw.sum(axis=1, keepdims=True)


def block_product_reference(model, front: np.ndarray, t: int) -> np.ndarray:
    """``front @ M_t`` block by block, straight from Eq. (3) (helper).

    Each output half sums one product per non-zero block of
    ``model.transition_blocks(t)`` (false-world term first) -- dense
    gemms, or transposed-CSR matmuls when the model is sparse-routed.
    ``TwoWorldModel.propagate_front`` must match it bitwise while doing
    only two products.
    """
    from repro.core.two_world import _scipy_sparse

    m = model.n_states
    halves = (front[:, :m], front[:, m:])

    def product(half, block):
        if not model.sparse_routing:
            return half @ block
        matrix = _scipy_sparse.csr_array(np.ascontiguousarray(block.T))
        return (matrix @ np.ascontiguousarray(half.T)).T

    ff, ft, tf, tt = model.transition_blocks(t)
    out = []
    for blocks in ((ff, tf), (ft, tt)):
        terms = [
            product(half, block)
            for half, block in zip(halves, blocks)
            if block is not None
        ]
        out.append(sum(terms[1:], terms[0]) if terms else np.zeros((len(front), m)))
    return np.hstack(out)


def propagation_events(n_states: int) -> dict:
    """Events whose windows hit every case of Eqs. (4)-(8) (helper).

    Over t = 1..7: presence from t=1 (Eq. 4 from the first step),
    presence from t=3 (Eq. 5, then 4, then 5), pattern from t=1 (Eq. 7,
    then 8) and pattern from t=3 (Eq. 8, 6, 7, then 8).
    """
    def region(*cells):
        return Region.from_cells(n_states, [c % n_states for c in cells])

    return {
        "presence_start_1": PresenceEvent(region(0, 1), start=1, end=3),
        "presence_start_3": PresenceEvent(region(2, 5, 6), start=3, end=5),
        "pattern_start_1": PatternEvent(
            [region(0, 1, 2), region(1, 2), region(3)], start=1
        ),
        "pattern_start_3": PatternEvent(
            [region(4), region(1, 4, 5), region(0, 5)], start=3
        ),
    }
