"""Gridded precipitation fields and the geometric transforms the forecaster relies on.

A :class:`Raster` is a single 2-D field (rain rate in mm/h or reflectivity in
dBZ) on a regular grid; a :class:`SourceStack` is a time/channel stack of such
fields.  Pixels without ground truth carry the sentinel value ``-1``.

Coordinate convention: origin at the top-left corner, x to the right, y
downward, both in km.  All transforms are pure functions over their inputs.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import artifact

SENTINEL = -1.0

KINDS = ("rate", "dbz")


class DimensionError(ValueError):
    """Raised when grid dimensions are incompatible with a requested transform."""


class AlignmentError(ValueError):
    """Raised when a pad/crop target cannot be split symmetrically."""


def _check_values(values: np.ndarray, kind: str) -> None:
    if values.ndim < 2 or values.shape[-1] < 1 or values.shape[-2] < 1:
        raise DimensionError(f"grid must be at least 1x1, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite values")
    if kind == "rate":
        bad = (values < 0) & (values != SENTINEL)
        if np.any(bad):
            raise ValueError("rate grid has negative values other than the sentinel")
    elif kind == "dbz":
        if np.any((values < -1) | (values > 64)):
            raise ValueError("dBZ grid outside [-1, 64]")
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class Raster:
    """One georeferenced 2-D field.  Treat instances as immutable.

    values: (H, W) float array; ``-1`` marks missing ground truth.
    res_km: grid spacing in km/pixel (> 0).
    origin_km: (x, y) of the top-left corner in the shared frame, km.
    kind: "rate" (mm/h) or "dbz".
    """

    values: np.ndarray
    res_km: float
    origin_km: tuple[float, float] = (0.0, 0.0)
    kind: str = "rate"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise DimensionError(f"Raster values must be 2-D, got {self.values.ndim}-D")
        if self.res_km <= 0:
            raise ValueError("res_km must be positive")
        _check_values(self.values, self.kind)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def valid(self) -> np.ndarray:
        return self.values != SENTINEL

    @property
    def extent_km(self) -> tuple[float, float]:
        h, w = self.values.shape
        return (w * self.res_km, h * self.res_km)


@dataclass(frozen=True)
class SourceStack:
    """A (T, C, H, W) stack of fields sharing one grid.

    timesteps_min are offsets in minutes relative to the forecast origin and
    must be strictly increasing, one per time slice.
    """

    data: np.ndarray
    res_km: float
    origin_km: tuple[float, float] = (0.0, 0.0)
    timesteps_min: tuple[float, ...] = ()
    kind: str = "rate"

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        object.__setattr__(self, "timesteps_min", tuple(self.timesteps_min))
        if self.data.ndim != 4:
            raise DimensionError(f"SourceStack data must be (T, C, H, W), got {self.data.shape}")
        if self.res_km <= 0:
            raise ValueError("res_km must be positive")
        if len(self.timesteps_min) != self.data.shape[0]:
            raise ValueError("timesteps_min length must match the time dimension")
        steps = np.asarray(self.timesteps_min)
        if len(steps) > 1 and not np.all(np.diff(steps) > 0):
            raise ValueError("timesteps_min must be strictly increasing")
        _check_values(self.data, self.kind)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def extent_km(self) -> tuple[float, float]:
        h, w = self.data.shape[-2:]
        return (w * self.res_km, h * self.res_km)


# ---------------------------------------------------------------------------
# tensor rearrangements (no arithmetic)


def space_to_depth_array(x: np.ndarray, block: int) -> np.ndarray:
    """Rearrange (..., C, H, W) -> (..., C*block^2, H/block, W/block).

    Output channel c*block^2 + dy*block + dx holds phase (dy, dx) of input
    channel c.
    """
    block = int(block)
    if block < 1:
        raise ValueError("block must be >= 1")
    *lead, c, h, w = x.shape
    if h % block or w % block:
        raise DimensionError(f"block {block} does not divide {h}x{w}")
    if block == 1:
        return x.copy()
    x = x.reshape(*lead, c, h // block, block, w // block, block)
    # (..., c, H', by, W', bx) -> (..., c, by, bx, H', W')
    x = np.moveaxis(x, (-3, -1), (-4, -3))
    return np.ascontiguousarray(x.reshape(*lead, c * block * block, h // block, w // block))


def depth_to_space_array(x: np.ndarray, block: int) -> np.ndarray:
    """Inverse of :func:`space_to_depth_array`."""
    block = int(block)
    if block < 1:
        raise ValueError("block must be >= 1")
    *lead, cb, h, w = x.shape
    if cb % (block * block):
        raise DimensionError(f"channel count {cb} not divisible by block^2 = {block * block}")
    if block == 1:
        return x.copy()
    c = cb // (block * block)
    x = x.reshape(*lead, c, block, block, h, w)
    x = np.moveaxis(x, (-4, -3), (-3, -1))
    return np.ascontiguousarray(x.reshape(*lead, c, h * block, w * block))


def space_to_depth(s: SourceStack, block: int) -> SourceStack:
    """Space-to-depth on a stack; the grid becomes ``block`` times coarser."""
    out = space_to_depth_array(s.data, block)
    return replace(s, data=out, res_km=s.res_km * block)


def depth_to_space(s: SourceStack, block: int) -> SourceStack:
    out = depth_to_space_array(s.data, block)
    return replace(s, data=out, res_km=s.res_km / block)


def merge_time_channels(s: SourceStack) -> np.ndarray:
    """Fold time into channels: (T, C, H, W) -> (T*C, H, W), time-major."""
    t, c, h, w = s.data.shape
    return s.data.reshape(t * c, h, w)


def split_time_channels(x: np.ndarray, t_steps: int) -> np.ndarray:
    """Inverse of :func:`merge_time_channels`: (T*C, H, W) -> (T, C, H, W)."""
    tc, h, w = x.shape
    if tc % t_steps:
        raise DimensionError(f"{tc} channels not divisible into {t_steps} timesteps")
    return x.reshape(t_steps, tc // t_steps, h, w)


# ---------------------------------------------------------------------------
# geographic alignment


def align_center(s: SourceStack, target_extent_km: tuple[float, float]) -> SourceStack:
    """Pad with zeros / crop so the stack covers target_extent_km, centered.

    Padding and cropping are split equally on opposite sides; the physical
    coordinates of retained pixels are unchanged (origin_km is shifted to
    compensate).  Pad value is 0, not the sentinel: padding represents
    zero context, not missing ground truth.
    """
    t, c, h, w = s.data.shape
    tw_km, th_km = target_extent_km

    def target_px(extent, cur_px):
        px = extent / s.res_km
        px_i = int(round(px))
        if abs(px - px_i) > 1e-9:
            raise AlignmentError(f"target extent {extent} km is not a multiple of res {s.res_km} km")
        if (px_i - cur_px) % 2:
            raise AlignmentError(
                f"extent change {cur_px} -> {px_i} px cannot be split equally on both sides"
            )
        return px_i

    new_w = target_px(tw_km, w)
    new_h = target_px(th_km, h)
    dy = (new_h - h) // 2
    dx = (new_w - w) // 2
    out = s.data
    if dy > 0:
        out = np.pad(out, ((0, 0), (0, 0), (dy, dy), (0, 0)))
    elif dy < 0:
        out = out[:, :, -dy : h + dy, :]
    if dx > 0:
        out = np.pad(out, ((0, 0), (0, 0), (0, 0), (dx, dx)))
    elif dx < 0:
        out = out[:, :, :, -dx : w + dx]
    ox, oy = s.origin_km
    origin = (ox - dx * s.res_km, oy - dy * s.res_km)
    return replace(s, data=np.ascontiguousarray(out), origin_km=origin)


# ---------------------------------------------------------------------------
# portable raster files: an artifact (see artifact.py) with one array


def save_raster(base: str | Path, obj: Raster | SourceStack, extra: dict | None = None) -> None:
    """Write a raster or single-channel stack, plus the ``extra`` header fields."""
    header = {"res_km": obj.res_km, "origin_km": list(obj.origin_km), "kind": obj.kind}
    if isinstance(obj, Raster):
        payload = obj.values
    else:
        if obj.data.shape[1] != 1:
            raise ValueError("raster files hold single-channel stacks")
        header["timesteps_min"] = list(obj.timesteps_min)
        payload = obj.data
    header["h"], header["w"] = payload.shape[-2:]
    artifact.write(base, {**header, **(extra or {})}, [payload])


def load_raster(base: str | Path) -> Raster | SourceStack:
    """Read a raster artifact written by :func:`save_raster`."""
    header, (data,) = artifact.read(base)
    origin = tuple(header["origin_km"])
    if "timesteps_min" in header:
        return SourceStack(data, header["res_km"], origin, tuple(header["timesteps_min"]),
                           header["kind"])
    return Raster(data, header["res_km"], origin, header["kind"])
