"""Synthetic transition-matrix generators.

The paper's synthetic evaluation (Section V-A) builds a 20x20 map where
"the transition probability from one cell to another is proportional to the
two-dimensional Gaussian distribution with scale parameter sigma" -- a
smaller sigma concentrates mass on adjacent cells and therefore encodes a
more significant mobility pattern (Fig. 13 sweeps sigma over
{0.01, 0.1, 1, 10}).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive, check_unit_interval
from ..errors import MarkovError
from ..geo.grid import GridMap
from .transition import TransitionMatrix


def gaussian_kernel_transitions(
    grid: GridMap,
    sigma: float,
    distance_unit: str = "cells",
) -> TransitionMatrix:
    """Gaussian-kernel transition matrix on a grid (the paper's generator).

    ``M[i, j] proportional to exp(-d(i, j)^2 / (2 sigma^2))`` where ``d`` is
    the centre-to-centre distance.  In float64 an entry underflows to
    exactly 0.0 once ``d^2 / (2 sigma^2)`` exceeds about 745, so every
    entry is positive (and the chain ergodic) only while the largest
    distance on the map stays below about ``38.6 * sigma``: on a 20x20
    map that needs sigma above about 0.7 cells.  Below that the chain
    has zero entries; on that map sigma = 0.1 leaves every diagonal
    entry at exactly 1.0 (the largest off-diagonal entry is 1.9e-22),
    and sigma = 0.01 returns exactly the identity, a chain that never
    moves.

    Parameters
    ----------
    grid:
        The map to generate transitions on.
    sigma:
        Scale parameter; smaller values produce a stronger mobility
        pattern (movement concentrated on nearby cells).
    distance_unit:
        ``"cells"`` (default) measures distance in cell widths, matching
        the paper's dimensionless sigma values; ``"km"`` uses the grid's
        physical distances.
    """
    sigma = check_positive(sigma, "sigma")
    if distance_unit not in ("cells", "km"):
        raise MarkovError(f"distance_unit must be 'cells' or 'km', got {distance_unit!r}")
    distances = grid.distance_matrix_km
    if distance_unit == "cells":
        distances = distances / grid.cell_size_km
    # Subtract the row-min (zero, on the diagonal) before exponentiating so
    # tiny sigmas do not underflow every entry of a row to zero.
    logits = -(distances**2) / (2.0 * sigma * sigma)
    logits = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    matrix = weights / weights.sum(axis=1, keepdims=True)
    return TransitionMatrix(matrix)


def lazy_random_walk_transitions(
    grid: GridMap,
    stay_probability: float = 0.2,
    diagonal: bool = True,
) -> TransitionMatrix:
    """Lazy nearest-neighbour random walk on the grid.

    With probability ``stay_probability`` the user stays put; otherwise it
    moves uniformly to one of the adjacent cells.  Useful as a structured
    alternative to the Gaussian kernel (sparse support, strong locality).
    """
    stay = check_unit_interval(stay_probability, "stay_probability")
    m = grid.n_cells
    matrix = np.zeros((m, m), dtype=np.float64)
    for cell in range(m):
        neighbors = grid.neighbors(cell, diagonal=diagonal)
        matrix[cell, cell] += stay
        if neighbors:
            share = (1.0 - stay) / len(neighbors)
            for other in neighbors:
                matrix[cell, other] += share
        else:
            matrix[cell, cell] = 1.0
    return TransitionMatrix(matrix)


def biased_commute_transitions(
    grid: GridMap,
    anchors: tuple[int, ...],
    sigma: float = 1.0,
    anchor_pull: float = 0.6,
) -> TransitionMatrix:
    """Gaussian walk biased toward a set of anchor cells (home/work).

    Each row is a mixture: with weight ``anchor_pull`` the user moves one
    step toward the nearest anchor, and with weight ``1 - anchor_pull`` it
    performs the Gaussian-kernel move.  Produces the strongly patterned,
    commute-like chains the Geolife substitute trains on.
    """
    pull = check_unit_interval(anchor_pull, "anchor_pull")
    if not anchors:
        raise MarkovError("biased_commute_transitions needs at least one anchor")
    base = gaussian_kernel_transitions(grid, sigma).matrix
    m = grid.n_cells
    toward = np.zeros((m, m), dtype=np.float64)
    centers = grid.cell_centers_km
    anchor_centers = centers[list(anchors)]
    for cell in range(m):
        deltas = anchor_centers - centers[cell]
        nearest = int(np.argmin((deltas * deltas).sum(axis=1)))
        target = anchors[nearest]
        if target == cell:
            toward[cell, cell] = 1.0
            continue
        # Step to the neighbour that most reduces distance to the anchor.
        options = grid.neighbors(cell, diagonal=True)
        dists = [grid.distance_km(option, target) for option in options]
        toward[cell, options[int(np.argmin(dists))]] = 1.0
    return TransitionMatrix(pull * toward + (1.0 - pull) * base)
