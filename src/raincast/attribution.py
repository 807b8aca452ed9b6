"""Input attribution via integrated gradients.

Gradients of a scalar target are averaged along the straight path from a
baseline to the input (midpoint Riemann sum) and scaled by the input
difference.  The baseline is the per-channel minimum of the encoded input,
which drives the forecast probabilities toward zero rain.
"""

import numpy as np

from .micromodel import ParamSet, encode_input, forward_encoded


def integrated_gradients_fn(value_and_grad, x: np.ndarray, baseline: np.ndarray,
                            steps: int = 64):
    """Integrated gradients of a generic scalar function.

    value_and_grad(x) must return (scalar value, gradient wrt x).  Returns a
    dict with the attribution map, endpoint values, and the completeness gap
    |sum(attribution) - (F(x) - F(baseline))|.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    baseline = np.broadcast_to(np.asarray(baseline, dtype=np.float64), x.shape)
    diff = x - baseline
    grad_sum = np.zeros_like(x)
    for i in range(steps):
        a = (i + 0.5) / steps
        _, g = value_and_grad(baseline + a * diff)
        grad_sum += g
    attribution = diff * grad_sum / steps
    f_x, _ = value_and_grad(x)
    f_base, _ = value_and_grad(baseline)
    gap = abs(float(np.sum(attribution)) - (f_x - f_base))
    return {
        "attribution": attribution,
        "value": f_x,
        "baseline_value": f_base,
        "completeness_gap": gap,
    }


def _target_weights(shape, target) -> np.ndarray:
    """Constant weights selecting the target logits: (t, c, pixel set)."""
    t_idx, c_idx, pixels = target
    w = np.zeros(shape)
    if pixels is None:
        w[0, t_idx, c_idx] = 1.0
    else:
        pixels = np.asarray(pixels)
        if pixels.dtype == bool:
            w[0, t_idx, c_idx][pixels] = 1.0
        else:
            for y, x in pixels:
                w[0, t_idx, c_idx, y, x] = 1.0
    return w


def integrated_gradients(params: ParamSet, frames: np.ndarray, target, steps: int = 64):
    """Attribute a sum of output logits to the encoded input planes, under
    ``params.config`` and with the raw parameter tensors.

    target: (lead index, class index, pixel set) where the pixel set is a
    boolean (H, W) mask, a list of (y, x) pairs, or None for the whole map.
    The scalar differentiated is the sum of the selected pre-sigmoid logits.

    Returns the :func:`integrated_gradients_fn` dict plus ``per_channel``,
    the attribution summed over space per encoded input plane.
    """
    config = params.config
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ValueError("attribution runs on a single (t_in, H, W) sample")
    lead_idx = target[0] if config.mode == "lead-conditioned" else None
    x0 = encode_input(frames, config, lead_idx)

    weights = None

    def value_and_grad(x_enc):
        nonlocal weights
        out, tape, x_leaf = forward_encoded(params, x_enc[None])
        if weights is None:
            tgt = (0, *target[1:]) if config.mode == "lead-conditioned" else target
            weights = _target_weights(out.value.shape, tgt)
        scalar = tape.weighted_sum(out, weights)
        tape.backward(scalar)
        return float(scalar.value), x_leaf.grad[0]

    baseline = x0.min(axis=(-2, -1), keepdims=True)  # per-channel minimum
    result = integrated_gradients_fn(value_and_grad, x0, baseline, steps)
    result["per_channel"] = result["attribution"].sum(axis=(-2, -1))
    return result
