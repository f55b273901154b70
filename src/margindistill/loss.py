"""The triplet loss with fixed and teacher-driven dynamic margins, over a batch.

The per-triplet hinge is ``max(D(a,p) - D(a,n) + margin, 0)`` with D the
squared Euclidean distance on the (already normalized) embeddings.  In
dynamic mode the margin is a linear map of the teacher's distance gap::

    margin(d) = (m_max - m_min) / d_max * d + m_min

with d_max the batch's largest gap, clipped onto [m_min, m_max]; a batch
whose gaps are all 0 takes m_min.  Teacher distances are constants in the
student's computation graph, so the margin term contributes no gradient;
the analytical subgradient of the hinge at the kink uses the inactive
branch (all-zero gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

MARGIN_MODES = ("fixed", "dynamic")
_SCATTER_BLOCK = 1 << 16   # flat-index entries per gradient scatter call


@dataclass(frozen=True)
class MarginConfig:
    """Margin mode plus its parameters; only the active mode's fields are read."""

    mode: str
    m: float = 0.0
    m_min: float = 0.0
    m_max: float = 0.0

    def __post_init__(self):
        if self.mode not in MARGIN_MODES:
            raise ContractViolation(f"margin mode must be one of {MARGIN_MODES}")
        if self.mode == "fixed":
            if not (math.isfinite(self.m) and self.m >= 0.0):
                raise ContractViolation("fixed margin m must be finite and >= 0")
        else:
            if not (math.isfinite(self.m_min) and math.isfinite(self.m_max)):
                raise ContractViolation("margin bounds must be finite")
            if not (0.0 <= self.m_min <= self.m_max):
                raise ContractViolation("need 0 <= m_min <= m_max")

    @classmethod
    def fixed(cls, m: float) -> "MarginConfig":
        return cls(mode="fixed", m=m)

    @classmethod
    def dynamic(cls, m_min: float, m_max: float) -> "MarginConfig":
        return cls(mode="dynamic", m_min=m_min, m_max=m_max)


@dataclass
class BatchLossResult:
    loss: float                 # mean per-triplet loss
    grad: np.ndarray            # (B, dim) accumulated per-sample gradients
    margins: np.ndarray         # (T,) margin used per triplet
    active: np.ndarray          # (T,) hinge-active flags
    d_max: float                # max teacher gap in the batch (0.0 in fixed mode)


def _scatter_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """Set out[r] to the sum of values[i] over rows[i] == r, added in i order from 0.0.

    One weighted bincount per block of columns; blocks narrow as rows grow, so
    dense batches scatter a column at a time and never hold a (rows x dim) index.
    """
    n_out, dim = out.shape
    width = max(1, _SCATTER_BLOCK // rows.size)
    for c0 in range(0, dim, width):
        block = values[:, c0:c0 + width]
        w = block.shape[1]
        flat = np.arange(n_out * w).reshape(n_out, w).take(rows, axis=0).ravel()
        out[:, c0:c0 + w] = np.bincount(
            flat, weights=block.ravel(), minlength=n_out * w).reshape(n_out, w)


def batch_loss(
    embeddings: np.ndarray,
    triplets: np.ndarray,
    teacher_gaps: np.ndarray | None,
    cfg: MarginConfig,
) -> BatchLossResult:
    """Mean triplet loss over a mini-batch plus per-sample gradients.

    embeddings: (B, dim) student embeddings for the batch entries.
    triplets:   (T, 3) integer positions (anchor, positive, negative) into
                the embedding rows.
    teacher_gaps: (T,) non-negative teacher distance gaps; required in
                dynamic mode, ignored in fixed mode.  The batch maximum of
                these gaps is the d_max fed to the margin map.

    Gradients are the 1/T-scaled sums of per-triplet contributions,
    accumulated in batch order (fixed reduction order for determinism).
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ContractViolation("embeddings must be a (B, dim) array")
    tri = np.asarray(triplets, dtype=np.int64)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise ContractViolation("triplets must be a (T, 3) index array")
    n_triplets = tri.shape[0]
    if n_triplets == 0:
        raise ContractViolation("batch_loss requires at least one triplet")
    if tri.min() < 0 or tri.max() >= emb.shape[0]:
        raise ContractViolation("triplet index out of range")

    rows = emb.take(tri.T, axis=0)                    # (3, T, dim): anchors, positives, negatives
    dp = rows[0] - rows[1]
    dn = rows[0] - rows[2]
    d_ap = np.einsum("ij,ij->i", dp, dp)
    d_an = np.einsum("ij,ij->i", dn, dn)

    if cfg.mode == "fixed":
        margins = np.full(n_triplets, cfg.m, dtype=np.float64)
        d_max = 0.0
    else:
        if teacher_gaps is None:
            raise ContractViolation("dynamic mode requires per-triplet teacher gaps")
        gaps = np.asarray(teacher_gaps, dtype=np.float64)
        if gaps.shape != (n_triplets,):
            raise ContractViolation("teacher_gaps must have one entry per triplet")
        d_max = float(gaps.max())                     # NaN or inf if any gap is
        if not math.isfinite(d_max) or gaps.min() < 0.0:
            raise ContractViolation("teacher gaps must be finite and >= 0")
        if d_max == 0.0:
            margins = np.full(n_triplets, cfg.m_min, dtype=np.float64)
        else:
            margins = (cfg.m_max - cfg.m_min) / d_max * gaps + cfg.m_min
            np.maximum(margins, cfg.m_min, out=margins)
            np.minimum(margins, cfg.m_max, out=margins)

    losses = np.maximum(d_ap - d_an + margins, 0.0)
    active = losses > 0.0
    loss = float(losses.sum() / n_triplets)

    grad = np.zeros_like(emb)
    scale = 1.0 / n_triplets
    act = np.flatnonzero(active)
    if act.size:
        if act.size < n_triplets:                     # take: far cheaper than [act] here
            tri, rows = tri.take(act, axis=0), rows.take(act, axis=1)
            dp, dn = dp.take(act, axis=0), dn.take(act, axis=0)
        # anchor, then positive, then negative terms: the sums' bits depend on this
        # order.  Each term overwrites a gathered row that is no longer read.
        np.subtract(rows[2], rows[1], out=rows[0])
        rows[0] *= 2.0 * scale
        np.multiply(-2.0 * scale, dp, out=rows[1])
        np.multiply(2.0 * scale, dn, out=rows[2])
        _scatter_rows(grad, tri.T.ravel(), rows.reshape(-1, emb.shape[1]))

    return BatchLossResult(
        loss=loss, grad=grad, margins=margins, active=active, d_max=d_max
    )
