"""Synthetic radar sequences plus the split cycles, with blackout periods,
that divide their timeline into train, validation and test.

Scenes are sums of Gaussian rain cells advected by a constant velocity (or
rotated about the domain center), with multiplicative intensity drift,
additive clipped noise, and optional sentinel holes.  Everything is
deterministic given the seed.
"""

from dataclasses import dataclass

import numpy as np

from .raster import SENTINEL
from .schema import check_types, require

MIN_PER_HOUR = 60
MIN_PER_DAY = 1440


@dataclass(frozen=True)
class SceneConfig:
    h: int = 32
    w: int = 32
    n_cells: int = 3
    amp_range: tuple[float, float] = (1.0, 8.0)
    radius_range: tuple[float, float] = (3.0, 6.0)
    velocity: tuple[float, float] = (2.0, 0.0)  # (vx, vy) px/step
    rotation_deg_per_step: float = 0.0
    drift_rate: float = 0.0  # per-step log-amplitude drift
    noise_sigma: float = 0.0
    hole_prob: float = 0.0
    hole_radius: float = 4.0
    seed: int = 0
    res_km: float = 2.0
    rate_cap: float = 64.0  # keep rates inside the reflectivity-representable range

    def __post_init__(self):
        check_types(self, "scene.")
        require(min(self.h, self.w) >= 1, "scene.h and scene.w must be at least 1")
        for name in ("n_cells", "noise_sigma", "hole_radius", "seed"):
            require(getattr(self, name) >= 0, f"scene.{name} must be nonnegative")
        for name in ("res_km", "rate_cap"):
            require(getattr(self, name) > 0, f"scene.{name} must be positive")
        require(0 <= self.hole_prob <= 1, "scene.hole_prob must lie in [0, 1]")
        require(0 <= self.amp_range[0] <= self.amp_range[1],
                "scene.amp_range must be nonnegative and not empty")
        require(0 < self.radius_range[0] <= self.radius_range[1],
                "scene.radius_range must be positive and not empty")


def gen_sequence(cfg: SceneConfig, t_steps: int) -> np.ndarray:
    """Generate (T, H, W) rain-rate frames.

    Cell centers move k * velocity per frame (evaluated analytically, so a
    noise-free, drift-free sequence is an exact continuous shift of frame 0);
    amplitudes scale by exp(drift_rate * k); clipped Gaussian noise and
    circular sentinel holes are optional.
    """
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_cells
    cy = rng.uniform(0, cfg.h, size=n)
    cx = rng.uniform(0, cfg.w, size=n)
    amp = rng.uniform(*cfg.amp_range, size=n)
    rad = rng.uniform(*cfg.radius_range, size=n)
    noise = rng.normal(0.0, cfg.noise_sigma, size=(t_steps, cfg.h, cfg.w)) if cfg.noise_sigma > 0 else None
    hole_draws = rng.uniform(size=t_steps)
    hole_cy = rng.uniform(0, cfg.h, size=t_steps)
    hole_cx = rng.uniform(0, cfg.w, size=t_steps)

    ys, xs = np.mgrid[0 : cfg.h, 0 : cfg.w].astype(np.float64)
    vx, vy = cfg.velocity
    theta0 = np.arctan2(cy - cfg.h / 2.0, cx - cfg.w / 2.0)
    rho = np.hypot(cy - cfg.h / 2.0, cx - cfg.w / 2.0)

    out = np.zeros((t_steps, cfg.h, cfg.w))
    for k in range(t_steps):
        frame = np.zeros((cfg.h, cfg.w))
        gain = np.exp(cfg.drift_rate * k)
        for i in range(n):
            if cfg.rotation_deg_per_step:
                th = theta0[i] + np.deg2rad(cfg.rotation_deg_per_step) * k
                cyk = cfg.h / 2.0 + rho[i] * np.sin(th)
                cxk = cfg.w / 2.0 + rho[i] * np.cos(th)
            else:
                # wrap so cells keep crossing the domain on long timelines
                cyk = (cy[i] + vy * k) % cfg.h
                cxk = (cx[i] + vx * k) % cfg.w
            d2 = (ys - cyk) ** 2 + (xs - cxk) ** 2
            frame += amp[i] * gain * np.exp(-d2 / (2.0 * rad[i] ** 2))
        if noise is not None:
            frame = frame + noise[k]
        frame = np.clip(frame, 0.0, cfg.rate_cap)
        if cfg.hole_prob > 0 and hole_draws[k] < cfg.hole_prob:
            hole = (ys - hole_cy[k]) ** 2 + (xs - hole_cx[k]) ** 2 <= cfg.hole_radius**2
            frame[hole] = SENTINEL
        out[k] = frame
    return out


# ---------------------------------------------------------------------------
# split cycles


SPLIT_LABELS = ("train", "val", "test", "blackout")


@dataclass(frozen=True)
class SplitAssignment:
    """Timestamp (minutes) -> split label, as parallel tuples."""

    timestamps_min: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.timestamps_min) != len(self.labels):
            raise ValueError("timestamps and labels length mismatch")

    def of(self, split: str) -> np.ndarray:
        """Timestamps carrying the given label."""
        return np.array([t for t, l in zip(self.timestamps_min, self.labels) if l == split])


def make_splits(
    timestamps_min,
    cycle_days: tuple[float, float, float] = (12.0, 2.0, 2.0),
    blackout_h: float = 12.0,
) -> SplitAssignment:
    """Assign train/val/test labels in repeating multi-day cycles.

    Each cycle holds cycle_days of train, then val, then test.  The first
    ``blackout_h`` hours after every segment boundary -- train->val,
    val->test, and test->train of the next cycle -- are labeled blackout and
    belong to no split, so no evaluation timestamp comes within the blackout
    of a training one.
    """
    ts = np.asarray(list(timestamps_min), dtype=np.float64)
    if ts.size == 0:
        raise ValueError("no timestamps")
    if np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be sorted")
    train_min, val_min, test_min = (d * MIN_PER_DAY for d in cycle_days)
    cycle = train_min + val_min + test_min
    bo = blackout_h * MIN_PER_HOUR

    labels = []
    for t in ts:
        off = t - ts[0]
        pos = off % cycle
        cycle_idx = int(off // cycle)
        if cycle_idx > 0 and pos < bo:
            labels.append("blackout")  # after the previous cycle's test segment
        elif pos < train_min:
            labels.append("train")
        elif pos < train_min + bo:
            labels.append("blackout")
        elif pos < train_min + val_min:
            labels.append("val")
        elif pos < train_min + val_min + bo:
            labels.append("blackout")
        else:
            labels.append("test")
    return SplitAssignment(tuple(ts.tolist()), tuple(labels))

