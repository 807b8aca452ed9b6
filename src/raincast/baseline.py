"""Reference forecasters: persistence and radar-echo extrapolation.

Echo extrapolation estimates a single global motion vector by masked
block matching between consecutive frames and advects the latest frame
with a backward semi-Lagrangian scheme (unconditionally stable, standard
in nowcasting).

The matching surface is estimated whole from FFT cross-correlations, with
a per-cell error bound; the rows where the minimum can lie are then
recomputed exactly, so the chosen shift, its ties and its sub-pixel fit
are those of the exact surface.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .raster import SENTINEL

FLAT_GAP = 0.3  # a surface is flat when its minimum lies within this share of the median
_EPS = np.finfo(np.float64).eps
# FFT correlation error per eps * log2(size) * (|a|_2 |b|_1 + |a|_1 |b|_2): the
# forward, product and inverse rounding give about 10 (Higham 2002, sec. 24.1)
_FFT_ERROR = 32.0


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


def _msd_rows(f_prev: np.ndarray, f_next: np.ndarray, search: int, rows) -> np.ndarray:
    """Rows ``rows`` of the exact masked-MSD surface: msd[iy, ix] is the mean
    squared difference of f_next and f_prev shifted by (iy - search, ix - search)
    over their overlapping valid pixels, inf without overlap.  Filled one shift
    row at a time: window k of a column-padded row block is f_prev shifted by
    search - k along x.  The whole surface is ``_msd_rows`` of every row."""
    h, w = f_prev.shape
    pad = ((0, 0), (search, search))
    prev = sliding_window_view(np.pad(f_prev, pad), w, axis=1)
    ok_prev = sliding_window_view(np.pad(f_prev != SENTINEL, pad), w, axis=1)
    ok_next = f_next != SENTINEL
    msd = np.full((len(rows), 2 * search + 1), np.inf)
    for i, iy in enumerate(rows):
        sy = iy - search
        y0, y1 = max(0, sy), min(h, h + sy)
        if y0 >= y1:
            continue
        block = slice(y0 - sy, y1 - sy)
        m = ok_prev[block].transpose(1, 0, 2) & ok_next[y0:y1]
        d = (f_next[y0:y1] - prev[block].transpose(1, 0, 2)) * m
        n = np.count_nonzero(m, axis=(1, 2))
        msd[i, ::-1] = np.where(n > 0, np.einsum("kij,kij->k", d, d) / np.maximum(n, 1), np.inf)
    return msd


def _msd_estimate(f_prev: np.ndarray, f_next: np.ndarray, search: int):
    """FFT estimate of the whole masked-MSD surface and a per-cell absolute
    bound on its distance from the exact ``_msd_rows`` value.

    With n, p the frames zeroed at sentinels and m_n, m_p their validity
    masks, the sum at a shift is  sum m_p' n^2 + sum m_n p'^2 - 2 sum n p'
    over the overlap count sum m_n m_p', primes marking the shifted earlier
    frame (Padfield 2012, masked registration in the Fourier domain).  The
    four cross-correlations come from one batched rfft2/irfft2 of size
    (h + search, w + search), so no shift in the search window wraps.  The
    count is rounded to an integer, so the inf pattern is exact.

    The bound adds, per correlation of a with b, the FFT error
    _FFT_ERROR eps log2(size) (|a|_2 |b|_1 + |a|_1 |b|_2) and the rounding of
    the exact row sums, eps (count + 8) times the summed terms; it is doubled
    for safety and divided by the count.
    """
    h, w = f_prev.shape
    size = (h + search, w + search)
    ok_prev, ok_next = f_prev != SENTINEL, f_next != SENTINEL
    n = np.where(ok_next, f_next, 0.0)
    p = np.where(ok_prev, f_prev, 0.0)
    maps = np.stack([n * n, ok_next, n, ok_prev, p * p, p])
    spec = np.fft.rfft2(maps, size)
    # corr[k] = sum_y a(y) b(y - k): a from f_next, b from f_prev shifted by k
    a, b = [0, 1, 2, 1], [3, 4, 5, 3]
    corr = np.fft.irfft2(spec[a] * spec[b].conj(), size)
    k = np.arange(-search, search + 1)
    s_nn, s_pp, s_np, count = corr[:, (k % size[0])[:, None], k % size[1]]
    count = np.rint(count)
    est = np.full(count.shape, np.inf)
    ok = count > 0
    est[ok] = (s_nn[ok] + s_pp[ok] - 2.0 * s_np[ok]) / count[ok]

    l1 = np.abs(maps).sum(axis=(1, 2))
    l2 = np.sqrt(np.einsum("kij,kij->k", maps, maps))
    fft_err = sum(weight * (l2[i] * l1[j] + l1[i] * l2[j])
                  for i, j, weight in zip(a[:3], b[:3], (1.0, 1.0, 2.0)))
    fft_err *= _FFT_ERROR * _EPS * np.log2(size[0] * size[1])
    terms = np.abs(s_nn) + np.abs(s_pp) + 2.0 * np.abs(s_np) + fft_err
    bound = 2.0 * (fft_err + _EPS * (count + 8.0) * terms) / np.maximum(count, 1.0)
    return est, bound


def _candidates(est: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Cells whose exact value may be the surface minimum; every other cell's
    exact value exceeds it."""
    return est - bound <= np.min(est + bound)


def _decide(msd: np.ndarray, search: int):
    """(vx, vy, flat) from a masked-MSD surface: the minimum, nearest zero
    shift among ties, refined by a quadratic fit, or (0, 0, True) when flat."""
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
    flat = (med - best) <= FLAT_GAP * med
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


def _pair_motion(f_prev: np.ndarray, f_next: np.ndarray, search: int):
    """``_decide`` on the exact surface, reading exact values only where the
    decision can depend on them.  Rows holding a candidate minimum, and the
    rows next to them (the sub-pixel neighbours), are recomputed exactly;
    the rest keep the FFT estimate, which exceeds the minimum there.  When
    the flatness test on the median lies within the bound of its boundary,
    the whole surface is recomputed exactly."""
    msd, bound = _msd_estimate(f_prev, f_next, search)
    rows = np.flatnonzero(_candidates(msd, bound).any(axis=1))
    rows = np.unique(np.clip(np.concatenate([rows - 1, rows, rows + 1]), 0, 2 * search))
    msd[rows] = _msd_rows(f_prev, f_next, search, rows)
    if len(rows) < len(msd):
        finite = np.isfinite(msd)
        med = np.median(msd[finite])
        # the median moves by at most the largest bound when estimates become exact
        if abs((med - msd.min()) - FLAT_GAP * med) <= np.max(bound[finite]):
            msd = _msd_rows(f_prev, f_next, search, range(len(msd)))
    return _decide(msd, search)


def estimate_motion(frames: np.ndarray, search: int = 16) -> MotionField:
    """Global motion (px/step) from two or more consecutive frames.

    Each consecutive pair contributes an integer-shift estimate that
    minimizes the masked mean squared difference within +/- ``search`` px,
    refined to sub-pixel by a quadratic fit around the minimum; the pair
    estimates are averaged.  The (2 search + 1)^2 surface of mean squared
    differences is estimated from four masked FFT cross-correlations, each
    cell with an absolute error bound.  The rows that may hold the minimum,
    and their neighbours, are recomputed exactly one shift row at a time;
    if the flatness test is within the bound of its boundary, every row is.
    So the result is bit for bit that of the exact surface.  Featureless or
    pure-noise inputs yield a motion near zero flagged ``low_confidence``.
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
