"""Independent scalar-loop reference implementations.

Everything here is deliberately naive -- plain Python loops over pixels,
buckets and windows -- so the vectorized library code is checked against an
implementation that shares no code path with it.
"""

import math

import numpy as np

SENTINEL = -1.0


def confusion_loop(pred, obs, threshold, valid=None):
    tp = fp = fn = tn = 0
    pred = np.asarray(pred).ravel()
    obs = np.asarray(obs).ravel()
    valid = (obs != SENTINEL) if valid is None else np.asarray(valid).ravel()
    for p, o, v in zip(pred, obs, valid):
        if not v:
            continue
        pe, oe = p >= threshold, o >= threshold
        if pe and oe:
            tp += 1
        elif pe:
            fp += 1
        elif oe:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def csi_loop(tp, fp, fn):
    d = tp + fp + fn
    return tp / d if d else math.nan


def fbi_loop(tp, fp, fn):
    d = tp + fn
    return (tp + fp) / d if d else math.nan


def hss_loop(tp, fp, fn, tn):
    d = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    return 2.0 * (tp * tn - fn * fp) / d if d else math.nan


def fss_loop(pred_bin, obs_bin, window):
    """FSS with truncated-window fractions, one window position at a time."""
    pred_bin = np.asarray(pred_bin, dtype=float)
    obs_bin = np.asarray(obs_bin, dtype=float)
    h, w = pred_bin.shape
    half = window // 2
    num = 0.0
    den = 0.0
    for i in range(h):
        for j in range(w):
            y0, y1 = max(0, i - half), min(h, i + half + 1)
            x0, x1 = max(0, j - half), min(w, j + half + 1)
            cells = (y1 - y0) * (x1 - x0)
            f = pred_bin[y0:y1, x0:x1].sum() / cells
            o = obs_bin[y0:y1, x0:x1].sum() / cells
            num += (f - o) ** 2
            den += f * f + o * o
    if den == 0.0:
        return 1.0
    return 1.0 - num / den


def fss_components_loop(pred_bin, obs_bin, window):
    """The numerator and denominator sums behind :func:`fss_loop`, which a
    report accumulates over samples."""
    pred_bin = np.asarray(pred_bin, dtype=float)
    obs_bin = np.asarray(obs_bin, dtype=float)
    h, w = pred_bin.shape
    half = window // 2
    num = 0.0
    den = 0.0
    for i in range(h):
        for j in range(w):
            y0, y1 = max(0, i - half), min(h, i + half + 1)
            x0, x1 = max(0, j - half), min(w, j + half + 1)
            cells = (y1 - y0) * (x1 - x0)
            f = pred_bin[y0:y1, x0:x1].sum() / cells
            o = obs_bin[y0:y1, x0:x1].sum() / cells
            num += (f - o) ** 2
            den += f * f + o * o
    return num, den


def pooled_csi_loop(pred, obs, pool, threshold, valid=None):
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    valid = (obs != SENTINEL) if valid is None else np.asarray(valid)
    h, w = pred.shape
    tp = fp = fn = 0
    for i in range(0, h, pool):
        for j in range(0, w, pool):
            pe = oe = False
            for a in range(pool):
                for b in range(pool):
                    if valid[i + a, j + b]:
                        if pred[i + a, j + b] >= threshold:
                            pe = True
                        if obs[i + a, j + b] >= threshold:
                            oe = True
            if pe and oe:
                tp += 1
            elif pe:
                fp += 1
            elif oe:
                fn += 1
    return csi_loop(tp, fp, fn)


def crps_loop(p, rate, edges, widths):
    """CRPS of one pixel: loop over all buckets including no-rain.

    p: exceedance probabilities per edge; widths: K+1 bucket widths with the
    no-rain bucket first.
    """
    total = 0.0
    mins = [0.0] + list(edges)
    for b, lo in enumerate(mins):
        cdf_pred = 0.0 if b == 0 else 1.0 - p[b - 1]
        cdf_obs = 1.0 if rate < lo else 0.0
        total += (cdf_pred - cdf_obs) ** 2 * widths[b]
    return total


def ordinal_loss_loop(q, rates, edges, weights):
    """Masked weighted BCE, one element at a time."""
    t_steps, k = q.shape[0], q.shape[1]
    total = 0.0
    n = 0
    eps = 1e-7
    for t in range(t_steps):
        for h in range(q.shape[2]):
            for w in range(q.shape[3]):
                r = rates[t, h, w]
                if r == SENTINEL:
                    continue
                for c in range(k):
                    if c > 0 and not (r >= edges[c - 1]):
                        continue
                    y = 1.0 if r >= edges[c] else 0.0
                    qc = min(max(q[t, c, h, w], eps), 1 - eps)
                    bce = -(y * math.log(qc) + (1 - y) * math.log(1 - qc))
                    total += weights[t] * bce
                    n += 1
    return (total / n if n else 0.0), n


def ssim_loop(pred, obs, window=11, sigma=1.5, k1=0.01, k2=0.03):
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    h, w = pred.shape
    r = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(r**2) / (2 * sigma**2))
    kern = np.outer(g, g)
    kern /= kern.sum()
    dyn = obs.max() - obs.min()
    if dyn == 0:
        dyn = 1.0
    c1 = (k1 * dyn) ** 2
    c2 = (k2 * dyn) ** 2
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            a = pred[i : i + window, j : j + window]
            b = obs[i : i + window, j : j + window]
            mu_a = (kern * a).sum()
            mu_b = (kern * b).sum()
            var_a = (kern * a * a).sum() - mu_a**2
            var_b = (kern * b * b).sum() - mu_b**2
            cov = (kern * a * b).sum() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def space_to_depth_loop(x, block):
    """Index-bookkeeping reference for the block-phase rearrangement."""
    t, c, h, w = x.shape
    out = np.zeros((t, c * block * block, h // block, w // block))
    for ti in range(t):
        for ci in range(c):
            for dy in range(block):
                for dx in range(block):
                    oc = ci * block * block + dy * block + dx
                    for i in range(h // block):
                        for j in range(w // block):
                            out[ti, oc, i, j] = x[ti, ci, i * block + dy, j * block + dx]
    return out


def conv3x3_loop(x, w, b, g):
    """Same-padded 3x3 convolution y of x (B,C,H,W) by w (O,C,3,3) plus b
    (O), and for an upstream gradient g shaped like y the gradients of
    sum(g * y) with respect to w, b and x, one output pixel and tap at a time.
    Returns (y, gw, gb, gx)."""
    n_b, n_c, h, w_ = x.shape
    n_o = w.shape[0]
    y = np.zeros((n_b, n_o, h, w_))
    gw, gb, gx = np.zeros_like(w), np.zeros_like(b), np.zeros_like(x)
    for n in range(n_b):
        for o in range(n_o):
            for i in range(h):
                for j in range(w_):
                    y[n, o, i, j] = b[o]
                    gb[o] += g[n, o, i, j]
                    for c in range(n_c):
                        for ky in range(3):
                            for kx in range(3):
                                si, sj = i + ky - 1, j + kx - 1
                                if 0 <= si < h and 0 <= sj < w_:
                                    y[n, o, i, j] += w[o, c, ky, kx] * x[n, c, si, sj]
                                    gw[o, c, ky, kx] += g[n, o, i, j] * x[n, c, si, sj]
                                    gx[n, c, si, sj] += g[n, o, i, j] * w[o, c, ky, kx]
    return y, gw, gb, gx


def msd_surface_loop(f_prev, f_next, search):
    """Masked mean squared difference between f_next and f_prev shifted by
    (sy, sx), one shift at a time, at [sy + search, sx + search]; inf where
    the two share no valid pixel."""
    h, w = f_prev.shape
    out = np.full((2 * search + 1, 2 * search + 1), np.inf)
    for iy, sy in enumerate(range(-search, search + 1)):
        for ix, sx in enumerate(range(-search, search + 1)):
            y0, y1 = max(0, sy), min(h, h + sy)
            x0, x1 = max(0, sx), min(w, w + sx)
            if y0 >= y1 or x0 >= x1:
                continue
            a = f_next[y0:y1, x0:x1]
            b = f_prev[y0 - sy : y1 - sy, x0 - sx : x1 - sx]
            m = (a != SENTINEL) & (b != SENTINEL)
            n = int(m.sum())
            if n:
                d = np.where(m, a - b, 0.0)
                out[iy, ix] = float((d * d).sum() / n)
    return out


def csi_curve_loop(p, events, candidates):
    """CSI of the forecast p >= c against events for each candidate c, one
    pixel at a time."""
    out = []
    for c in candidates:
        tp = fp = fn = 0
        for pi, e in zip(p, events):
            if pi >= c and e:
                tp += 1
            elif pi >= c:
                fp += 1
            elif e:
                fn += 1
        out.append(csi_loop(tp, fp, fn))
    return np.array(out)


def sigmoid_loop(v):
    """Logistic function one element at a time, by the sign of each input."""
    out = []
    for x in np.asarray(v, dtype=np.float64).ravel():
        if x >= 0:
            out.append(1.0 / (1.0 + np.exp(-x)))
        else:
            ex = np.exp(x)
            out.append(ex / (1.0 + ex))
    return np.array(out).reshape(np.shape(v))
