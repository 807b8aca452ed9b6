"""Ordinal-consistent exceedance forecasting: the core math.

The model emits *conditional* exceedance probabilities per lead time and
intensity class: q[t, 0] = P(R_t >= e_1) and, for c > 0,
q[t, c] = P(R_t >= e_{c+1} | R_t >= e_c).  Cumulative products of the
conditionals reconstruct unconditional exceedance probabilities that are
monotone nonincreasing across classes by construction.

Shapes follow the (T, K, H, W) convention of the rest of the package; the
loss functions also accept extra leading batch dimensions.
"""

import json
from dataclasses import dataclass

import numpy as np

from .intensity import BinSet, ClassMasks, bucket_representatives
from .raster import SENTINEL

# probability clamp applied inside the losses to guard log(0)
EPS = 1e-7


@dataclass(frozen=True)
class LossValue:
    """A scalar loss plus the number of contributing elements.

    ``count == 0`` flags a fully-missing sample; the loss is then 0.
    """

    value: float
    count: int

    @property
    def empty(self) -> bool:
        return self.count == 0

    def __float__(self) -> float:
        return self.value


def reconstruct(cond: np.ndarray) -> np.ndarray:
    """Exceedance probabilities from conditionals via cumulative products.

    p[..., t, c, h, w] = prod_{j <= c} q[..., t, j, h, w].  The output is
    monotone nonincreasing along the class axis for any input in [0, 1].
    """
    cond = np.asarray(cond, dtype=np.float64)
    return np.cumprod(cond, axis=-3)


# ---------------------------------------------------------------------------
# lead-time weights


@dataclass(frozen=True)
class LeadWeights:
    """Per-lead-time loss weights with mean exactly 1.

    ``alpha`` is the configured ratio of the first lead's weight to the
    last's (>= 1); weights decay geometrically in between.
    """

    w: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))


def lead_time_weights(alpha: float, t_steps: int) -> LeadWeights:
    """Exponentially decaying lead-time weights, normalized to mean 1.

    raw[t] = alpha**(-t / (T-1)), so the first/last weight ratio equals
    alpha.  The raw weights are normalized to sum 1, then rescaled so their
    mean is exactly 1, which keeps the weighted loss on the same scale as the
    unweighted one.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    if t_steps == 1:
        return LeadWeights(np.ones(1), float(alpha))
    raw = alpha ** (-np.arange(t_steps, dtype=np.float64) / (t_steps - 1))
    norm = raw / raw.sum()
    w = norm / norm.mean()
    return LeadWeights(w, float(alpha))


# ---------------------------------------------------------------------------
# losses: one numpy kernel per loss, shared by the numpy API below and by the
# tape ops in :mod:`raincast.autodiff`


def softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``, shifted by the maximum so exp cannot overflow."""
    e = np.exp(logits - logits.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _ordinal_selection(masks: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Element selection for the ordinal loss: valid pixels where the
    previous class is exceeded (the first class is always in)."""
    sel = np.empty_like(masks, dtype=bool)
    sel[..., 0, :, :] = valid
    sel[..., 1:, :, :] = (masks[..., :-1, :, :] > 0) & valid[..., None, :, :]
    return sel


def _bucket_labels(masks: np.ndarray) -> np.ndarray:
    """Observed bucket index per pixel: the number of exceeded edges."""
    return masks.sum(axis=-3).astype(np.intp)


def _masked_bce(q, targets, sel, weights, with_grad: bool = False):
    """sum_sel(weights * BCE(clip(q), targets)) / |sel|.

    targets, sel and weights broadcast to q's shape.  Returns (value, |sel|,
    gradient with respect to q or None); the gradient is zero where the
    clamp to [EPS, 1 - EPS] is active and everywhere when |sel| = 0.
    """
    n = int(np.sum(sel))
    if n == 0:
        return 0.0, 0, np.zeros_like(q) if with_grad else None
    qc = np.clip(q, EPS, 1.0 - EPS)
    bce = -(targets * np.log(qc) + (1.0 - targets) * np.log1p(-qc))
    value = float(np.sum(bce * weights, where=sel)) / n
    if not with_grad:
        return value, n, None
    grad = np.where(sel, weights * (qc - targets) / (qc * (1.0 - qc)) / n, 0.0)
    grad[(q < EPS) | (q > 1.0 - EPS)] = 0.0
    return value, n, grad


def _masked_softmax_ce(logits, labels, valid, weights, axis: int, with_grad: bool = False):
    """sum_valid(weights * CE(softmax(logits), labels)) / |valid|, via log-sum-exp.

    labels holds integer class indices along ``axis``; valid and weights
    broadcast to the label shape.  Returns (value, |valid|, gradient with
    respect to logits or None).
    """
    n = int(np.sum(valid))
    if n == 0:
        return 0.0, 0, np.zeros_like(logits) if with_grad else None
    labels = np.expand_dims(labels, axis)
    m = logits.max(axis=axis, keepdims=True)
    lse = np.squeeze(m, axis) + np.log(np.exp(logits - m).sum(axis=axis))
    picked = np.squeeze(np.take_along_axis(logits, labels, axis=axis), axis)
    value = float(np.sum((lse - picked) * weights, where=valid)) / n
    if not with_grad:
        return value, n, None
    onehot = np.zeros_like(logits)
    np.put_along_axis(onehot, labels, 1.0, axis=axis)
    wv = np.expand_dims(np.broadcast_to(weights * valid, picked.shape), axis)
    return value, n, (softmax(logits, axis) - onehot) * wv / n


def ordinal_loss(
    cond: np.ndarray,
    targets: ClassMasks,
    weights: LeadWeights | None = None,
    return_grad: bool = False,
):
    """Masked, lead-time-weighted binary cross entropy on the conditionals.

    Per element, BCE(q[t, c], 1(R_t >= e_{c+1})) is evaluated on the set S of
    valid elements whose previous class is activated, multiplied by the lead
    weight of t, summed, and divided by |S| (an element count, so the mean-1
    weight normalization leaves a uniform-target loss unchanged).

    Returns a :class:`LossValue`; with ``return_grad=True`` also returns the
    analytic gradient with respect to ``cond``.
    """
    q = np.asarray(cond, dtype=np.float64)
    masks, valid = targets.masks, targets.valid
    if q.shape != masks.shape:
        raise ValueError(f"cond shape {q.shape} != target shape {masks.shape}")
    w = np.ones(q.shape[-4]) if weights is None else weights.w
    value, n, grad = _masked_bce(q, masks, _ordinal_selection(masks, valid),
                                 w[:, None, None, None], return_grad)
    loss = LossValue(value, n)
    return (loss, grad) if return_grad else loss


def ce_loss(
    bucket_logits: np.ndarray,
    targets: ClassMasks,
    weights: LeadWeights | None = None,
) -> LossValue:
    """Softmax cross entropy over the K+1 buckets (the non-ordinal variant).

    Labels are the observed bucket indices; the per-pixel loss is multiplied
    by the lead weight and averaged over valid pixels.
    """
    logits = np.asarray(bucket_logits, dtype=np.float64)
    masks, valid = targets.masks, targets.valid
    if logits.shape[-3] != masks.shape[-3] + 1:
        raise ValueError("bucket_logits must cover K+1 buckets including no-rain")
    w = np.ones(logits.shape[-4]) if weights is None else weights.w
    value, n, _ = _masked_softmax_ce(logits, _bucket_labels(masks), valid,
                                     w[:, None, None], axis=-3)
    return LossValue(value, n)


def bucket_probs_to_exceedance(probs: np.ndarray) -> np.ndarray:
    """Tail-sum per-bucket probabilities into exceedance probabilities.

    p[..., c, :, :] = sum of bucket probabilities from bucket c+1 upward;
    the result is monotone nonincreasing along the class axis.
    """
    probs = np.asarray(probs, dtype=np.float64)
    tail = np.flip(np.cumsum(np.flip(probs, axis=-3), axis=-3), axis=-3)
    return tail[..., 1:, :, :]


# ---------------------------------------------------------------------------
# threshold calibration and intensity extraction


DEFAULT_CANDIDATES = np.round(np.arange(0.02, 0.99, 0.02), 2)


@dataclass(frozen=True)
class ThresholdTable:
    """Per-(class, lead time) activation thresholds in (0, 1).

    ``fallback`` marks cells that fell back to 0.5 because the class was
    never observed in the calibration data.
    """

    thr: np.ndarray
    edges: tuple[float, ...]
    lead_min: tuple[float, ...] = ()
    fallback: np.ndarray | None = None

    def __post_init__(self):
        thr = np.asarray(self.thr, dtype=np.float64)
        object.__setattr__(self, "thr", thr)
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "lead_min", tuple(self.lead_min))
        if thr.ndim != 2 or thr.shape[0] != len(self.edges):
            raise ValueError("thr must be (K, T) with one row per edge")
        if np.any((thr <= 0) | (thr >= 1)):
            raise ValueError("thresholds must lie strictly inside (0, 1)")

    def to_json(self) -> str:
        doc = {
            "edges": list(self.edges),
            "lead_min": list(self.lead_min),
            "thresholds": self.thr.tolist(),
            "fallback": None if self.fallback is None else self.fallback.astype(int).tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, expect_edges) -> "ThresholdTable":
        """Parse :meth:`to_json` output, refusing a table whose edges are not
        ``expect_edges``."""
        doc = json.loads(text)
        edges = tuple(doc["edges"])
        if tuple(expect_edges) != edges:
            raise ValueError("threshold table edges do not match the configured bins")
        fb = doc.get("fallback")
        return cls(
            np.asarray(doc["thresholds"]),
            edges,
            tuple(doc.get("lead_min", ())),
            None if fb is None else np.asarray(fb, dtype=bool),
        )


def _csi_curve(p: np.ndarray, events: np.ndarray, candidates: np.ndarray):
    """CSI of 1(p >= thr) vs events for every candidate threshold at once."""
    n_pos = int(events.sum())
    # idx[i] = number of candidates <= p[i]; prediction at candidate j is positive iff idx > j
    idx_pos = np.searchsorted(candidates, p[events], side="right")
    idx_neg = np.searchsorted(candidates, p[~events], side="right")
    m = len(candidates)
    tp = np.cumsum(np.bincount(idx_pos, minlength=m + 1)[::-1])[::-1][1:]
    fp = np.cumsum(np.bincount(idx_neg, minlength=m + 1)[::-1])[::-1][1:]
    fn = n_pos - tp
    denom = tp + fp + fn
    with np.errstate(invalid="ignore"):
        return np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)


def calibrate_thresholds(
    prob_cubes,
    target_masks,
    bins: BinSet,
    lead_min: tuple[float, ...] = (),
) -> ThresholdTable:
    """Pick, per (class, lead time), the activation threshold in
    :data:`DEFAULT_CANDIDATES` maximizing CSI.

    ``prob_cubes`` and ``target_masks`` are parallel sequences of (T, K, H, W)
    exceedance cubes and :class:`ClassMasks` over a calibration set, and
    ``bins`` holds their K edges.  Ties break toward the smaller threshold; a
    class with no observed events falls back to 0.5 and is flagged.
    """
    cubes = list(prob_cubes)
    masks = list(target_masks)
    if not cubes or len(cubes) != len(masks):
        raise ValueError("need a nonempty calibration set with matching targets")
    t_steps, k = cubes[0].shape[0], cubes[0].shape[1]
    if bins.n_classes != k:
        raise ValueError("bin edge count does not match the probability cubes")
    thr = np.full((k, t_steps), 0.5)
    fallback = np.zeros((k, t_steps), dtype=bool)
    for c in range(k):
        for t in range(t_steps):
            p_all, y_all = [], []
            for cube, cm in zip(cubes, masks):
                v = cm.valid[t]
                p_all.append(cube[t, c][v])
                y_all.append(cm.masks[t, c][v] > 0)
            p = np.concatenate(p_all)
            y = np.concatenate(y_all)
            if y.size == 0 or not y.any():
                fallback[c, t] = True
                continue
            csi = _csi_curve(p, y, DEFAULT_CANDIDATES)
            csi = np.where(np.isnan(csi), -1.0, csi)
            thr[c, t] = DEFAULT_CANDIDATES[int(np.argmax(csi))]  # argmax takes the first = smallest on ties
    return ThresholdTable(thr, bins.edges, lead_min, fallback)


def extract_intensity(p: np.ndarray, table: ThresholdTable, bins: BinSet) -> np.ndarray:
    """Rates from an exceedance cube: the representative of the highest
    activated bucket, where class c is activated iff p[t, c] >= thr[c, t].

    Returns a (T, H, W) rate array; pixels with no activated class get 0.
    """
    p = np.asarray(p, dtype=np.float64)
    t_steps, k = p.shape[0], p.shape[1]
    if table.thr.shape != (k, t_steps):
        raise ValueError(f"threshold table shape {table.thr.shape} != (K, T) = {(k, t_steps)}")
    activated = p >= table.thr.T[:, :, None, None]
    class_ids = np.arange(1, k + 1)[None, :, None, None]
    highest = np.max(np.where(activated, class_ids, 0), axis=1)
    return bucket_representatives(bins)[highest]


# ---------------------------------------------------------------------------
# probabilistic score


def crps(p: np.ndarray, rates: np.ndarray, bins: BinSet) -> LossValue:
    """Discrete CRPS over the intensity buckets.

    Per valid pixel, sum over every bucket of
    (P(R < min_bucket) - 1(R < min_bucket))^2 * bucket_width, where
    P(R < e_c) = 1 - p[c] and P(R < 0) = 0 (so the no-rain bucket never
    contributes).  The open top bucket uses ``top_width``.  The result is a
    mean over valid pixels and lead times; an all-missing input is flagged.
    """
    p = np.asarray(p, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    valid = rates != SENTINEL
    n = int(valid.sum())
    if n == 0:
        return LossValue(float("nan"), 0)
    edges = np.asarray(bins.edges)
    widths = bins.widths[1:]  # width of the bucket starting at each edge
    cdf_pred = 1.0 - p  # P(R < e_c)
    cdf_obs = (rates[:, None] < edges[None, :, None, None]).astype(np.float64)
    per_pixel = np.sum((cdf_pred - cdf_obs) ** 2 * widths[None, :, None, None], axis=1)
    total = float(np.sum(per_pixel, where=valid))
    return LossValue(total / n, n)
