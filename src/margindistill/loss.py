"""Triplet losses with fixed and teacher-driven dynamic margins.

The per-triplet hinge is ``max(D(a,p) - D(a,n) + margin, 0)`` with D the
squared Euclidean distance on the (already normalized) embeddings.  In
dynamic mode the margin is a linear map of the teacher's distance gap::

    margin(d) = (m_max - m_min) / d_max * d + m_min

which pins the margin to [m_min, m_max] for d in [0, d_max].  Teacher
distances are constants in the student's computation graph, so the margin
term contributes no gradient; the analytical subgradient of the hinge at
the kink uses the inactive branch (all-zero gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .numerics import as_vector, sq_euclidean

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
class TripletLossResult:
    loss: float
    active: bool
    grad_a: np.ndarray
    grad_p: np.ndarray
    grad_n: np.ndarray
    margin_used: float


@dataclass
class BatchLossResult:
    loss: float                 # mean per-triplet loss
    grad: np.ndarray            # (B, dim) accumulated per-sample gradients
    margins: np.ndarray         # (T,) margin used per triplet
    active: np.ndarray          # (T,) hinge-active flags
    d_max: float                # max teacher gap in the batch (0.0 in fixed mode)


def _check_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ContractViolation(f"{name} must be finite and >= 0, got {value}")
    return value


def triplet_loss(d_ap: float, d_an: float, m: float) -> float:
    """Hinge max(d_ap - d_an + m, 0) on precomputed distances."""
    d_ap = _check_nonneg("d_ap", d_ap)
    d_an = _check_nonneg("d_an", d_an)
    m = _check_nonneg("m", m)
    return max(d_ap - d_an + m, 0.0)


def margin_fn(d: float, m_min: float, m_max: float, d_max: float) -> float:
    """Linear margin map; returns m_min for a degenerate d_max = 0 batch.

    Callers must pass the batch maximum as d_max; d outside [0, d_max] is a
    contract violation.  The result is clamped onto [m_min, m_max] so the
    range holds exactly under floating-point rounding.
    """
    d = _check_nonneg("d", d)
    d_max = _check_nonneg("d_max", d_max)
    if not (0.0 <= m_min <= m_max):
        raise ContractViolation("need 0 <= m_min <= m_max")
    if d > d_max:
        raise ContractViolation(f"d={d} exceeds batch maximum d_max={d_max}")
    if d_max == 0.0:
        return m_min
    value = (m_max - m_min) / d_max * d + m_min
    return min(max(value, m_min), m_max)


def triplet_grads(
    a, p, n, active: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytical subgradients of the hinge w.r.t. the three embeddings.

    Active: grad_a = 2(n - p), grad_p = -2(a - p), grad_n = 2(a - n);
    inactive: zeros.  The margin term never contributes (teacher frozen).
    """
    a = as_vector(a)
    p = as_vector(p)
    n = as_vector(n)
    if not (a.shape == p.shape == n.shape):
        raise ContractViolation("triplet embeddings must share one dimension")
    if not active:
        z = np.zeros_like(a)
        return z, z.copy(), z.copy()
    return 2.0 * (n - p), -2.0 * (a - p), 2.0 * (a - n)


def triplet_loss_dynamic(
    a, p, n, d_teacher: float, d_max: float, cfg: MarginConfig
) -> TripletLossResult:
    """Dynamic-margin triplet loss on one (anchor, positive, negative)."""
    if cfg.mode != "dynamic":
        raise ContractViolation("triplet_loss_dynamic requires a dynamic MarginConfig")
    a = as_vector(a)
    p = as_vector(p)
    n = as_vector(n)
    if not (a.shape == p.shape == n.shape):
        raise ContractViolation("triplet embeddings must share one dimension")
    margin = margin_fn(d_teacher, cfg.m_min, cfg.m_max, d_max)
    d_ap = sq_euclidean(a, p)
    d_an = sq_euclidean(a, n)
    loss = max(d_ap - d_an + margin, 0.0)
    active = loss > 0.0
    grad_a, grad_p, grad_n = triplet_grads(a, p, n, active)
    return TripletLossResult(
        loss=loss,
        active=active,
        grad_a=grad_a,
        grad_p=grad_p,
        grad_n=grad_n,
        margin_used=margin,
    )


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
        flat = (rows[:, None] * w + np.arange(w)).ravel()
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

    anchors = emb[tri[:, 0]]
    dp = anchors - emb[tri[:, 1]]
    dn = anchors - emb[tri[:, 2]]
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
        if not np.all(np.isfinite(gaps)) or np.any(gaps < 0.0):
            raise ContractViolation("teacher gaps must be finite and >= 0")
        d_max = float(gaps.max())
        if d_max == 0.0:
            margins = np.full(n_triplets, cfg.m_min, dtype=np.float64)
        else:
            margins = (cfg.m_max - cfg.m_min) / d_max * gaps + cfg.m_min
            np.clip(margins, cfg.m_min, cfg.m_max, out=margins)

    losses = np.maximum(d_ap - d_an + margins, 0.0)
    active = losses > 0.0
    loss = float(losses.sum() / n_triplets)

    grad = np.zeros_like(emb)
    scale = 1.0 / n_triplets
    act = np.where(active)[0]
    if act.size:
        # anchor, then positive, then negative terms: the sums' bits depend on this order
        t = tri[act]
        contrib = np.empty((3, act.size, emb.shape[1]))
        np.subtract(emb[t[:, 2]], emb[t[:, 1]], out=contrib[0])
        contrib[0] *= 2.0 * scale
        np.multiply(-2.0 * scale, dp[act], out=contrib[1])
        np.multiply(2.0 * scale, dn[act], out=contrib[2])
        _scatter_rows(grad, t.T.ravel(), contrib.reshape(-1, emb.shape[1]))

    return BatchLossResult(
        loss=loss, grad=grad, margins=margins, active=active, d_max=d_max
    )
