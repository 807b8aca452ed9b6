"""Reflectivity/rain-rate conversion and intensity-class machinery.

Rain rates are split into ordered buckets by a set of exceedance edges; the
implicit bucket below the first edge is "no rain".  Targets for training are
binary exceedance masks, one per edge.
"""

import json
from dataclasses import dataclass

import numpy as np

from .raster import SENTINEL

# Marshall-Palmer Z-R relation, Z = a * R^b
MP_A = 200.0
MP_B = 1.6

DBZ_MIN = -1.0
DBZ_MAX = 64.0


def clip_dbz(dbz, missing=None):
    """Clip reflectivity to [-1, 64] dBZ; pixels flagged missing pass through."""
    dbz = np.asarray(dbz, dtype=np.float64)
    out = np.clip(dbz, DBZ_MIN, DBZ_MAX)
    if missing is not None:
        out = np.where(missing, SENTINEL, out)
    return out


def dbz_to_rate(dbz, missing=None):
    """Convert reflectivity (dBZ) to rain rate (mm/h) via Marshall-Palmer.

    R = (10^(dBZ/10) / a)^(1/b) with a = 200, b = 1.6.  Inputs should be
    clipped first (:func:`clip_dbz`); pixels flagged missing come out as the
    sentinel.
    """
    dbz = np.asarray(dbz, dtype=np.float64)
    z = 10.0 ** (dbz / 10.0)
    rate = (z / MP_A) ** (1.0 / MP_B)
    if missing is not None:
        rate = np.where(missing, SENTINEL, rate)
    return rate


def rate_to_dbz(rate, missing=None):
    """Inverse of :func:`dbz_to_rate` (no clipping)."""
    rate = np.asarray(rate, dtype=np.float64)
    with np.errstate(divide="ignore"):
        dbz = 10.0 * np.log10(MP_A * rate**MP_B)
    if missing is not None:
        dbz = np.where(missing, SENTINEL, dbz)
    return dbz


@dataclass(frozen=True)
class BinSet:
    """Ordered exceedance edges (mm/h) defining intensity classes.

    edges: strictly increasing positive edges e_1 < ... < e_K; the implicit
        [0, e_1) bucket is "no rain".
    top_width: width assigned to the open [e_K, inf) bucket when a finite
        width is needed (probability-distance integration).
    """

    edges: tuple[float, ...]
    top_width: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
        e = np.asarray(self.edges)
        if len(e) == 0 or e[0] <= 0 or (len(e) > 1 and np.any(np.diff(e) <= 0)):
            raise ValueError("edges must be strictly increasing and positive")
        if self.top_width <= 0:
            raise ValueError("top_width must be positive")

    @property
    def n_classes(self) -> int:
        return len(self.edges)

    @property
    def widths(self) -> np.ndarray:
        """Widths of all K+1 buckets, no-rain bucket first."""
        e = np.asarray(self.edges)
        return np.concatenate([[e[0]], np.diff(e), [self.top_width]])

    def to_json(self) -> str:
        return json.dumps({"edges": list(self.edges), "top_width": self.top_width}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BinSet":
        doc = json.loads(text)
        return cls(tuple(doc["edges"]), doc["top_width"])

    @classmethod
    def preset(cls, name: str) -> "BinSet":
        try:
            return PRESETS[name]
        except KeyError:
            raise KeyError(f"unknown bin preset {name!r}; choose from {sorted(PRESETS)}") from None


# Fine edges for light rain, coarser for heavy rain; open top bucket >= 25 mm/h.
_EUROPE_EDGES = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                 8.0, 9.0, 10.0, 15.0, 20.0, 25.0)
# SEVIR benchmark thresholds (vertically integrated liquid pixel counts).
_SEVIR_EDGES = (16.0, 31.0, 59.0, 74.0, 100.0, 133.0, 160.0, 181.0, 219.0, 255.0)

PRESETS = {
    "europe": BinSet(_EUROPE_EDGES, top_width=5.0),
    "sevir": BinSet(_SEVIR_EDGES, top_width=38.0),
}
PRESETS["paper-europe"] = PRESETS["europe"]  # legacy alias


def classify(rate, bins: BinSet):
    """Bucket index in {0..K} for each rate; edges are left-closed."""
    rate = np.asarray(rate, dtype=np.float64)
    if np.any((rate < 0) & (rate != SENTINEL)):
        raise ValueError("negative non-sentinel rate")
    return np.searchsorted(np.asarray(bins.edges), rate, side="right")


def bucket_representative(bins: BinSet, c: int) -> float:
    """Representative rate of bucket ``c``: 0 for no rain, midpoints for finite
    buckets, the lower edge for the open top bucket."""
    k = bins.n_classes
    if not 0 <= c <= k:
        raise ValueError(f"bucket index {c} outside 0..{k}")
    if c == 0:
        return 0.0
    if c == k:
        return bins.edges[-1]
    return 0.5 * (bins.edges[c - 1] + bins.edges[c])


def bucket_representatives(bins: BinSet) -> np.ndarray:
    """Representatives of all K+1 buckets as a lookup array."""
    return np.array([bucket_representative(bins, c) for c in range(bins.n_classes + 1)])


@dataclass(frozen=True)
class ClassMasks:
    """Binary exceedance targets and their validity map.

    masks: (T, K, H, W) with masks[t, c] = 1(R_t >= e_{c+1}); rows are
        nonincreasing along c wherever valid.
    valid: (T, H, W), False where the target is the sentinel.
    """

    masks: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.masks.shape[0] != self.valid.shape[0] or self.masks.shape[2:] != self.valid.shape[1:]:
            raise ValueError("masks and valid shapes disagree")


def exceedance_masks(rates, bins: BinSet) -> ClassMasks:
    """Build exceedance masks 1(R_t >= e_c) from (T, H, W) rate frames.

    Mask entries at invalid pixels are zeroed but carry no meaning.
    """
    rates = np.asarray(rates, dtype=np.float64)
    valid = rates != SENTINEL
    edges = np.asarray(bins.edges)
    masks = (rates[:, None] >= edges[None, :, None, None]) & valid[:, None]
    return ClassMasks(masks.astype(np.float64), valid)
