"""Reference forecasters: persistence and radar-echo extrapolation.

Echo extrapolation estimates a single global motion vector by masked
block matching between consecutive frames and advects the latest frame
with a backward semi-Lagrangian scheme (unconditionally stable, standard
in nowcasting).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .raster import SENTINEL


@dataclass(frozen=True)
class MotionField:
    """Velocity in px/step: a global (vx, vy) vector, x rightward, y downward.

    ``low_confidence`` is set when the matching surface is too flat to trust
    (e.g. pure noise or featureless frames).
    """

    vx: float
    vy: float
    low_confidence: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.vx) and np.isfinite(self.vy)):
            raise ValueError("motion must be finite")


def persistence(frame: np.ndarray, t_out: int) -> np.ndarray:
    """Repeat the latest observation for every lead time."""
    frame = np.asarray(frame, dtype=np.float64)
    return np.repeat(frame[None], int(t_out), axis=0)


def _subpixel(m_minus: float, m0: float, m_plus: float) -> float:
    """Quadratic-fit offset of the minimum of three equally spaced samples."""
    denom = m_minus - 2.0 * m0 + m_plus
    if denom <= 0.0:
        return 0.0
    off = 0.5 * (m_minus - m_plus) / denom
    return float(np.clip(off, -0.5, 0.5))


def _msd_surface(f_prev: np.ndarray, f_next: np.ndarray, search: int) -> np.ndarray:
    """msd[iy, ix]: mean squared difference of f_next and f_prev shifted by
    (iy - search, ix - search) over their overlapping valid pixels, inf without
    overlap.  Filled one shift row at a time: window k of a column-padded row
    block is f_prev shifted by search - k along x."""
    h, w = f_prev.shape
    pad = ((0, 0), (search, search))
    prev = sliding_window_view(np.pad(f_prev, pad), w, axis=1)
    ok_prev = sliding_window_view(np.pad(f_prev != SENTINEL, pad), w, axis=1)
    ok_next = f_next != SENTINEL
    msd = np.full((2 * search + 1, 2 * search + 1), np.inf)
    for iy in range(2 * search + 1):
        sy = iy - search
        y0, y1 = max(0, sy), min(h, h + sy)
        if y0 >= y1:
            continue
        rows = slice(y0 - sy, y1 - sy)
        m = ok_prev[rows].transpose(1, 0, 2) & ok_next[y0:y1]
        d = (f_next[y0:y1] - prev[rows].transpose(1, 0, 2)) * m
        n = np.count_nonzero(m, axis=(1, 2))
        msd[iy, ::-1] = np.where(n > 0, np.einsum("kij,kij->k", d, d) / np.maximum(n, 1), np.inf)
    return msd


def _pair_motion(f_prev: np.ndarray, f_next: np.ndarray, search: int):
    msd = _msd_surface(f_prev, f_next, search)
    best = msd.min()
    # prefer the shift closest to zero among ties (featureless frames match everywhere)
    ties = np.argwhere(msd == best)
    order = np.lexsort((ties[:, 1], ties[:, 0], np.abs(ties - search).sum(axis=1)))
    iy, ix = ties[order[0]]
    sy, sx = iy - search, ix - search

    finite = msd[np.isfinite(msd)]
    med = float(np.median(finite))
    # trackable signal drives the matched MSD far below the typical mismatch;
    # pure noise leaves the surface flat (gap ~10%), real echoes reach >90%
    flat = (med - best) <= 0.3 * med
    if flat:
        # nothing trackable: the minimum is no better than the typical
        # mismatch, so its location is meaningless
        return 0.0, 0.0, True

    # a perfect integer match needs no refinement; otherwise fit a parabola
    vy, vx = float(sy), float(sx)
    if best > 0.0:
        if 0 < iy < 2 * search and np.isfinite(msd[iy - 1, ix]) and np.isfinite(msd[iy + 1, ix]):
            vy += _subpixel(msd[iy - 1, ix], msd[iy, ix], msd[iy + 1, ix])
        if 0 < ix < 2 * search and np.isfinite(msd[iy, ix - 1]) and np.isfinite(msd[iy, ix + 1]):
            vx += _subpixel(msd[iy, ix - 1], msd[iy, ix], msd[iy, ix + 1])
    return vx, vy, flat


def estimate_motion(frames: np.ndarray, search: int = 16) -> MotionField:
    """Global motion (px/step) from two or more consecutive frames.

    Each consecutive pair contributes an integer-shift estimate that
    minimizes the masked mean squared difference within +/- ``search`` px,
    refined to sub-pixel by a quadratic fit around the minimum; the pair
    estimates are averaged.  The (2 search + 1)^2 surface of mean squared
    differences is computed one shift row at a time from windowed views of
    the zero-padded earlier frame and its validity mask, with per-shift
    counts and sums from axis reductions.  Featureless or pure-noise inputs
    yield a motion near zero flagged ``low_confidence``.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[0] < 2:
        raise ValueError("need at least two frames")
    vxs, vys, flats = zip(*(_pair_motion(a, b, int(search)) for a, b in zip(frames, frames[1:])))
    return MotionField(float(np.mean(vxs)), float(np.mean(vys)), low_confidence=all(flats))


def advect(frame: np.ndarray, motion: MotionField, t_out: int) -> np.ndarray:
    """Constant-motion extrapolation by backward semi-Lagrangian sampling.

    Lead k samples the input at x - k*v with bilinear interpolation; pixels
    that sample outside the domain, or whose interpolation touches a sentinel
    with nonzero weight, become sentinel.
    """
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    out = np.empty((int(t_out), h, w))
    sent = frame == SENTINEL
    for k in range(1, int(t_out) + 1):
        sy = ys - k * motion.vy
        sx = xs - k * motion.vx
        inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
        y0 = np.clip(np.floor(sy), 0, h - 1).astype(np.intp)
        x0 = np.clip(np.floor(sx), 0, w - 1).astype(np.intp)
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        fy = sy - y0
        fx = sx - x0
        w00 = (1 - fy) * (1 - fx)
        w01 = (1 - fy) * fx
        w10 = fy * (1 - fx)
        w11 = fy * fx
        val = (
            w00 * frame[y0, x0]
            + w01 * frame[y0, x1]
            + w10 * frame[y1, x0]
            + w11 * frame[y1, x1]
        )
        touches_sent = (
            ((w00 > 0) & sent[y0, x0])
            | ((w01 > 0) & sent[y0, x1])
            | ((w10 > 0) & sent[y1, x0])
            | ((w11 > 0) & sent[y1, x1])
        )
        out[k - 1] = np.where(inside & ~touches_sent, val, SENTINEL)
    return out
