"""Forecast verification: categorical, neighborhood, error, and probabilistic
scores, plus their micro-aggregation into skill reports.

Scores whose denominator is 0 are *undefined* and reported as NaN; undefined
cells are excluded from macro averages rather than counted as 0.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .intensity import BinSet
from .probcast import crps
from .raster import SENTINEL


@dataclass
class ConfusionCounts:
    """Event counts at one (threshold, lead time) cell."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _events(pred, obs, threshold, valid=None):
    """Events (rate >= threshold) of pred and obs, False where obs is invalid
    (by default, where it is the sentinel), and the validity mask."""
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape:
        raise ValueError("pred/obs shape mismatch")
    valid = np.broadcast_to(obs != SENTINEL if valid is None else np.asarray(valid, bool), obs.shape)
    return (pred >= threshold) & valid, (obs >= threshold) & valid, valid


def _counts(pe, oe, n, axis=(-2, -1)) -> tuple:
    """Hits, false alarms, misses and correct negatives over ``axis`` of two
    event arrays that are already False off the domain of ``n`` cells."""
    tp = np.count_nonzero(pe & oe, axis=axis)
    fp = np.count_nonzero(pe, axis=axis) - tp
    fn = np.count_nonzero(oe, axis=axis) - tp
    return tp, fp, fn, n - tp - fp - fn


def accumulate_confusion(pred, obs, threshold: float, valid=None) -> ConfusionCounts:
    """Count hits/false alarms/misses/correct negatives over valid pixels.

    An event is rate >= threshold, on both the prediction and observation side.
    """
    pe, oe, valid = _events(pred, obs, threshold, valid)
    return ConfusionCounts(*map(int, _counts(pe, oe, np.count_nonzero(valid), axis=None)))


def categorical_scores(c: ConfusionCounts) -> dict:
    """CSI, FBI and HSS from confusion counts; 0/0 cells come back as NaN."""
    tp, fp, fn, tn = c.tp, c.fp, c.fn, c.tn
    csi = tp / (tp + fp + fn) if (tp + fp + fn) > 0 else math.nan
    fbi = (tp + fp) / (tp + fn) if (tp + fn) > 0 else math.nan
    hss_den = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    hss = 2.0 * (tp * tn - fn * fp) / hss_den if hss_den > 0 else math.nan
    return {"csi": csi, "fbi": fbi, "hss": hss}


# ---------------------------------------------------------------------------
# neighborhood scores


def _fss_sums(pe, oe, windows) -> list:
    """FSS numerator and denominator sums over the last two axes of two
    (..., H, W) event arrays, one (num, den) pair of arrays per window.  Event
    fractions come from one summed-area table per array (Faggian et al. 2015),
    with windows truncated at the edges and normalized by the in-domain cells."""
    h, w = pe.shape[-2:]
    tables = [np.zeros(e.shape[:-2] + (h + 1, w + 1)) for e in (pe, oe)]
    for e, table in zip((pe, oe), tables):
        np.cumsum(np.cumsum(e, axis=-2, dtype=np.float64), axis=-1, out=table[..., 1:, 1:])
    out = []
    for window in windows:
        half = window // 2
        y0, y1, x0, x1 = (np.clip(np.arange(n) + d, 0, n) for n in (h, w) for d in (-half, half + 1))
        cells = np.outer(y1 - y0, x1 - x0)
        # C order keeps the reductions below summing in the same order as on one field
        f, o = (np.ascontiguousarray((rows[..., x1] - rows[..., x0]) / cells)
                for rows in (t[..., y1, :] - t[..., y0, :] for t in tables))
        out.append((np.sum((f - o) ** 2, axis=(-2, -1)),
                    np.sum(f**2, axis=(-2, -1)) + np.sum(o**2, axis=(-2, -1))))
    return out


def fss_components(pred_bin, obs_bin, window: int) -> tuple[float, float]:
    """Numerator and denominator sums of the fractions skill score, for
    accumulation across samples."""
    pred_bin, obs_bin = np.asarray(pred_bin), np.asarray(obs_bin)
    if pred_bin.shape != obs_bin.shape:
        raise ValueError("pred/obs shape mismatch")
    window = int(window)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    ((num, den),) = _fss_sums(pred_bin, obs_bin, [window])
    return float(num), float(den)


def fss(pred_bin, obs_bin, window: int) -> float:
    """Fractions skill score: 1 - sum((F-O)^2) / (sum(F^2) + sum(O^2)).

    F and O are event fractions in a window x window box around each pixel.
    Two empty fields agree vacuously and score 1.
    """
    num, den = fss_components(pred_bin, obs_bin, window)
    if den == 0.0:
        return 1.0
    return 1.0 - num / den


def fss_window_px(neigh_km: float, res_km: float) -> int:
    """Symmetric odd window covering a neighborhood distance in km."""
    return 2 * round(neigh_km / (2.0 * res_km)) + 1


def _pooled_counts(pe, oe, pool: int) -> tuple:
    """:func:`_counts` after max-pooling both event arrays in pool x pool blocks."""
    h, w = pe.shape[-2:]
    if h % pool or w % pool:
        raise ValueError(f"pool {pool} does not divide {h}x{w}")
    pe, oe = (e.reshape(*e.shape[:-2], h // pool, pool, w // pool, pool).any(axis=(-3, -1))
              for e in (pe, oe))
    return _counts(pe, oe, (h // pool) * (w // pool))


def pooled_confusion(pred, obs, pool: int, threshold: float, valid=None) -> ConfusionCounts:
    """Confusion counts after max-pooling the binarized fields.

    Invalid observation pixels count as non-events before pooling.
    """
    pe, oe, _ = _events(pred, obs, threshold, valid)
    return ConfusionCounts(*map(int, _pooled_counts(pe, oe, int(pool))))


def pooled_csi(pred, obs, pool: int, threshold: float, valid=None) -> float:
    """CSI tolerant to small displacements: max-pool both fields, then score."""
    return categorical_scores(pooled_confusion(pred, obs, pool, threshold, valid))["csi"]


def _error_sums(pred, obs, valid, axis=None) -> tuple:
    """Absolute and squared error sums and valid-pixel count along ``axis``."""
    diff = np.where(valid, pred - obs, 0.0)
    return np.abs(diff).sum(axis=axis), (diff**2).sum(axis=axis), np.count_nonzero(valid, axis=axis)


def error_scores(pred, obs, valid=None) -> dict:
    """Mean absolute and mean squared error over valid pixels."""
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    abs_sum, sq_sum, n = _error_sums(pred, obs, obs != SENTINEL if valid is None else valid)
    if n == 0:
        return {"mae": math.nan, "mse": math.nan}
    return {"mae": float(abs_sum / n), "mse": float(sq_sum / n)}


# ---------------------------------------------------------------------------
# structural similarity


# the standard SSIM constants: an 11x11 Gaussian window of sigma 1.5 and
# stabilizers (K1 * range)^2, (K2 * range)^2
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _gaussian_band(n: int) -> np.ndarray:
    """(n, n - SSIM_WINDOW + 1) band matrix whose column j holds the normalised
    1-D Gaussian at rows j to j + SSIM_WINDOW - 1: ``x @ band`` is the Gaussian-weighted
    mean of every interior window along the last axis of x."""
    r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * SSIM_SIGMA**2))
    g /= g.sum()
    k = np.arange(n)[:, None] - np.arange(n - SSIM_WINDOW + 1)
    return np.where((k >= 0) & (k < SSIM_WINDOW), g[k.clip(0, SSIM_WINDOW - 1)], 0.0)


def ssim(pred, obs) -> float:
    """Mean structural similarity over all fully interior Gaussian windows.

    The dynamic range is taken from the observation field.  Inputs must be
    sentinel-free and at least ``SSIM_WINDOW`` pixels on each side.  The
    local means of p, o, p^2, o^2 and p*o come from one stack filtered by
    the separable Gaussian, along W and then along H, each a product with
    a band matrix of the normalised 1-D kernel.
    """
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape:
        raise ValueError("pred/obs shape mismatch")
    if np.any(pred == SENTINEL) or np.any(obs == SENTINEL):
        raise ValueError("ssim inputs must be sentinel-free")
    if min(pred.shape) < SSIM_WINDOW:
        raise ValueError(f"fields must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    dyn = float(obs.max() - obs.min())
    if dyn == 0.0:
        dyn = 1.0
    c1 = (SSIM_K1 * dyn) ** 2
    c2 = (SSIM_K2 * dyn) ** 2
    h, w = pred.shape
    maps = np.stack([pred, obs, pred * pred, obs * obs, pred * obs])
    mu_p, mu_o, e_pp, e_oo, e_po = _gaussian_band(h).T @ (maps @ _gaussian_band(w))
    var_p = e_pp - mu_p**2
    var_o = e_oo - mu_o**2
    cov = e_po - mu_p * mu_o
    num = (2 * mu_p * mu_o + c1) * (2 * cov + c2)
    den = (mu_p**2 + mu_o**2 + c1) * (var_p + var_o + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# report aggregation


@dataclass(frozen=True)
class EvalSample:
    """One forecast/observation pair entering a report.

    pred, obs: (T, H, W) rate fields (obs may contain sentinels).
    prob: optional (T, K, H, W) exceedance cube for CRPS.
    """

    pred: np.ndarray
    obs: np.ndarray
    prob: np.ndarray | None = None


@dataclass(frozen=True)
class ReportConfig:
    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)
    windows_km: tuple[float, ...] = (2.0, 10.0, 20.0)
    pools: tuple[int, ...] = (4,)
    res_km: float = 2.0
    bins: BinSet | None = None
    lead_min: tuple[float, ...] = ()


def csv_row(*cells) -> str:
    """One CSV line of key cells and a score, the last cell.  An undefined
    score (NaN, or None as in a report's JSON) prints as ``nan``."""
    *keys, value = cells
    value = math.nan if value is None else value
    return ",".join(map(str, keys)) + f",{value!r}"


@dataclass
class SkillReport:
    """Scalar scores keyed by (metric, threshold, lead time), derived from
    micro-aggregated counts and sums."""

    config: ReportConfig
    rows: list = field(default_factory=list)  # (metric, threshold, lead_min, value)
    n_samples: int = 0

    def value(self, metric: str, threshold, lead) -> float:
        for m, th, ld, v in self.rows:
            if m == metric and th == threshold and ld == lead:
                return v
        raise KeyError((metric, threshold, lead))

    def macro(self) -> dict:
        """Unweighted mean over thresholds, then over lead times, skipping
        undefined cells."""
        per_metric: dict[str, dict] = {}
        for m, th, ld, v in self.rows:
            if ld == "all":
                continue
            per_metric.setdefault(m, {}).setdefault(ld, []).append(v)
        out = {}
        for m, by_lead in per_metric.items():
            lead_means = []
            for vals in by_lead.values():
                vals = [v for v in vals if not math.isnan(v)]
                if vals:
                    lead_means.append(sum(vals) / len(vals))
            out[m] = sum(lead_means) / len(lead_means) if lead_means else math.nan
        return out

    def to_csv(self) -> str:
        lines = ["metric,threshold,lead_min,value"]
        lines += [csv_row(*row) for row in self.rows]
        lines += [csv_row(m, "all", "all", v) for m, v in sorted(self.macro().items())]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "config": {
                "thresholds": list(self.config.thresholds),
                "windows_km": list(self.config.windows_km),
                "pools": list(self.config.pools),
                "res_km": self.config.res_km,
                "lead_min": list(self.config.lead_min),
                "bins": None if self.config.bins is None else json.loads(self.config.bins.to_json()),
            },
            "n_samples": self.n_samples,
            "rows": [
                {"metric": m, "threshold": th, "lead_min": ld, "value": None if isinstance(v, float) and math.isnan(v) else v}
                for m, th, ld, v in self.rows
            ],
            "macro": {k: (None if math.isnan(v) else v) for k, v in self.macro().items()},
        }
        return json.dumps(doc, sort_keys=True)


def build_report(samples, config: ReportConfig) -> SkillReport:
    """Micro-aggregate a stream of :class:`EvalSample` into a skill report.

    Each sample is scored on whole arrays: its (T, n_thresholds, H, W) event
    cubes are built once, masked by the valid observations, and confusion
    counts, max-pooled counts and the FSS sums of every window come from axis
    reductions and one summed-area table per cube.  These, the error, SSIM
    and CRPS sums are accumulated per (threshold, lead time) in sample order;
    scores are computed once at the end.
    """
    windows = [fss_window_px(km, config.res_km) for km in config.windows_km]
    thresholds = np.asarray(config.thresholds, dtype=np.float64)[:, None, None]
    conf, pooled, fss_acc, err_acc, crps_acc, ssim_acc = {}, {}, {}, {}, {}, {}
    lead_min = list(config.lead_min)
    n_samples = 0

    def add(acc, key, *values):
        sums = acc.setdefault(key, [0] * len(values))
        for j, v in enumerate(values):
            sums[j] += v

    for s in samples:
        n_samples += 1
        pred = np.asarray(s.pred, dtype=np.float64)
        obs = np.asarray(s.obs, dtype=np.float64)
        lead_min = lead_min or list(range(pred.shape[0]))
        pe, oe, valid = _events(pred[:, None], obs[:, None], thresholds)
        counts = np.stack(_counts(pe, oe, np.count_nonzero(valid, axis=(-2, -1))), axis=-1)
        pool_counts = [np.stack(_pooled_counts(pe, oe, int(p)), axis=-1) for p in config.pools]
        fss_sums = _fss_sums(pe, oe, windows)
        errors = _error_sums(pred, obs, valid[:, 0], axis=(1, 2))
        for t in range(pred.shape[0]):
            for i, th in enumerate(config.thresholds):
                add(conf, (th, t), *counts[t, i].tolist())
                for pool, c in zip(config.pools, pool_counts):
                    add(pooled, (th, pool, t), *c[t, i].tolist())
                for (num, den), w_km in zip(fss_sums, config.windows_km):
                    add(fss_acc, (th, w_km, t), num[t, i].item(), den[t, i].item())
            add(err_acc, t, *(e[t].item() for e in errors))
            if valid[t, 0].all() and min(pred.shape[1:]) >= SSIM_WINDOW:
                add(ssim_acc, t, ssim(pred[t], obs[t]), 1)
        if s.prob is not None and config.bins is not None:
            for t in range(pred.shape[0]):
                r = crps(s.prob[t : t + 1], s.obs[t : t + 1], config.bins)
                if not r.empty:
                    add(crps_acc, t, r.value * r.count, r.count)

    if n_samples == 0:
        raise ValueError("build_report needs at least one sample")

    report = SkillReport(config=config, n_samples=n_samples)

    def lead_label(t):
        return lead_min[t] if t < len(lead_min) else t

    for (th, t), c in sorted(conf.items()):
        scores = categorical_scores(ConfusionCounts(*c))
        for m in ("csi", "fbi", "hss"):
            report.rows.append((m, th, lead_label(t), scores[m]))
    for (th, w_km, t), (num, den) in sorted(fss_acc.items()):
        v = 1.0 if den == 0.0 else 1.0 - num / den
        report.rows.append((f"fss_{w_km:g}km", th, lead_label(t), v))
    for (th, pool, t), c in sorted(pooled.items()):
        csi = categorical_scores(ConfusionCounts(*c))["csi"]
        report.rows.append((f"pooled_csi_p{pool}", th, lead_label(t), csi))
    for t, (abs_sum, sq_sum, n) in sorted(err_acc.items()):
        report.rows.append(("mae", "all", lead_label(t), abs_sum / n if n else math.nan))
        report.rows.append(("mse", "all", lead_label(t), sq_sum / n if n else math.nan))
    for t, (total, n) in sorted(crps_acc.items()):
        report.rows.append(("crps", "all", lead_label(t), total / n if n else math.nan))
    for t, (total, n) in sorted(ssim_acc.items()):
        report.rows.append(("ssim", "all", lead_label(t), total / n if n else math.nan))
    return report
