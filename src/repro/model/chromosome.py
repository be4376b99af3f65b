"""Chromosome layout and gene groups for the GA (paper Section 3).

A chromosome is the 10-vector ``(x0, y0, ρ0, ρ1, ..., ρ7)``.  The
paper's "multiple crossover" exchanges whole **gene groups** between
parents; the groups keep kinematically related sticks together:

* ``(x0, y0)`` — the trunk centre,
* ``(ρ0)`` — the trunk angle,
* ``(ρ1, ρ4)`` — neck and head,
* ``(ρ2, ρ5)`` — upper arm and forearm,
* ``(ρ3, ρ6, ρ7)`` — thigh, shank and foot.

:class:`RowMemo` remembers per-chromosome results against one
silhouette, keyed by the chromosome's bytes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import wrap_angle
from .pose import GENES
from ..errors import ModelError

#: Gene indices: 0=x0, 1=y0, 2+l = rho_l.
GENE_X0 = 0
GENE_Y0 = 1


def angle_gene(stick: int) -> int:
    """Chromosome index of stick ``Sl``'s angle gene."""
    if not 0 <= stick < GENES - 2:
        raise ModelError(f"stick index out of range: {stick}")
    return 2 + stick

#: The paper's crossover groups (Section 3): (x0,y0) (ρ0) (ρ1,ρ4)
#: (ρ2,ρ5) (ρ3,ρ6,ρ7).
GENE_GROUPS: tuple[tuple[int, ...], ...] = (
    (GENE_X0, GENE_Y0),
    (angle_gene(0),),
    (angle_gene(1), angle_gene(4)),
    (angle_gene(2), angle_gene(5)),
    (angle_gene(3), angle_gene(6), angle_gene(7)),
)


def validate_chromosomes(genes: np.ndarray) -> np.ndarray:
    """Validate a batch of chromosomes and normalise its angles.

    Returns a float copy with angle genes wrapped into ``[0, 360)``.
    """
    arr = np.asarray(genes, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != GENES:
        raise ModelError(
            f"chromosomes must have shape (P, {GENES}), got {np.shape(genes)}"
        )
    out = arr.copy()
    out[:, 2:] = wrap_angle(out[:, 2:])
    return out


def group_spans() -> list[np.ndarray]:
    """Gene groups as index arrays, for vectorised crossover."""
    return [np.asarray(group, dtype=np.intp) for group in GENE_GROUPS]


def chromosome_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two chromosomes: centre offset + mean angle gap.

    Useful as a diversity measure.  Angle differences are taken along
    the shortest arc so 359 and 1 are two degrees apart.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (GENES,) or b.shape != (GENES,):
        raise ModelError("chromosome_distance expects two 10-gene vectors")
    center = float(np.hypot(a[0] - b[0], a[1] - b[1]))
    diff = np.mod(a[2:] - b[2:] + 180.0, 360.0) - 180.0
    return center + float(np.abs(diff).mean())


class RowMemo:
    """Per-chromosome results of a row-wise batch function, by row bytes.

    The GA's gentle operators make most offspring bit-exact copies of a
    parent, and elites recur every generation, so the same chromosome
    meets the same silhouette many times per frame.  A memo answers
    every row it has seen and hands only the unseen, distinct rows to
    ``compute`` in one vectorised call.  That is exact only because the
    memoised functions score each row independently of its batch.

    Each owner builds its own memo and dies with its frame; a table
    outliving its silhouette would answer for a different mask.
    """

    #: Runaway-population guard: past this size the table restarts.
    MAX_ROWS = 65536

    def __init__(self, dtype: type) -> None:
        self._dtype = dtype
        self._table: dict[bytes, object] = {}
        self.rows_computed = 0

    def __call__(
        self, rows: np.ndarray, compute: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """``compute(rows)`` for a float64 ``(P, GENES)`` batch."""
        table = self._table
        blob = rows.tobytes()
        width = rows.shape[1] * rows.itemsize
        keys = [blob[start : start + width] for start in range(0, len(blob), width)]
        unseen = {key: index for index, key in enumerate(keys) if key not in table}
        if not unseen:
            return np.array([table[key] for key in keys], dtype=self._dtype)
        if len(table) + len(unseen) > self.MAX_ROWS:
            table = self._table = {key: table[key] for key in keys if key in table}
        self.rows_computed += len(unseen)
        if len(unseen) == len(keys):  # all new and distinct: no gather
            values = compute(rows)
            table.update(zip(keys, values.tolist()))
            return values
        table.update(zip(unseen, compute(rows[list(unseen.values())]).tolist()))
        return np.array([table[key] for key in keys], dtype=self._dtype)
