"""A miniature differentiable forecaster exercising the full training stack.

Architecture: space-to-depth stem -> 1x1 conv -> residual 3x3 conv blocks
with a smooth pointwise nonlinearity (SiLU) -> depth-to-space -> 1x1 head.
In single-pass mode the head emits logits for every lead time and intensity
class at once, with lead times folded into the channel axis (time-major);
lead-conditioned mode emits one lead time per forward pass, selected by
one-hot planes appended to the input.

Outputs are conditional exceedance probabilities (ordinal mode) or per-bucket
logits (cross-entropy mode).  Training is plain AdamW with an optional EMA
shadow, fully deterministic given the seed.
"""

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import artifact
from .autodiff import Tape
from .intensity import BinSet, exceedance_masks
from .probcast import (
    _bucket_labels,
    _ordinal_selection,
    bucket_probs_to_exceedance,
    lead_time_weights,
    reconstruct,
    softmax,
)
from .raster import SENTINEL

LEARNING_RATE = 3e-4
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.1
EMA_DECAY = 0.99975


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass(frozen=True)
class ModelConfig:
    t_in: int = 4
    t_out: int = 6
    k_classes: int = 5
    stem_block: int = 2
    channels: int = 32
    n_blocks: int = 4
    mode: str = "single-pass"  # or "lead-conditioned"
    loss: str = "ordinal"  # or "ce"
    alpha: float = 10.0
    seed: int = 0
    rate_cap: float = 32.0  # min-max normalization cap in mm/h
    steps: int = 2000
    batch_size: int = 8
    lr: float = LEARNING_RATE
    use_ema: bool = True
    ema_decay: float = EMA_DECAY

    def __post_init__(self):
        if min(self.t_in, self.t_out, self.k_classes, self.stem_block,
               self.channels, self.n_blocks) < 1:
            raise ValueError("all size fields must be positive")
        if self.mode not in ("single-pass", "lead-conditioned"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.loss not in ("ordinal", "ce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.channels % (self.stem_block**2):
            raise ValueError("channels must be divisible by stem_block^2")

    @property
    def in_channels(self) -> int:
        base = 2 * self.t_in  # frames plus per-frame validity planes
        return base + (self.t_out if self.mode == "lead-conditioned" else 0)

    @property
    def classes_per_lead(self) -> int:
        return self.k_classes + (1 if self.loss == "ce" else 0)

    @property
    def head_channels(self) -> int:
        per_lead = self.classes_per_lead
        return per_lead if self.mode == "lead-conditioned" else self.t_out * per_lead


@dataclass
class ParamSet:
    """Named parameter tensors plus training state."""

    tensors: dict
    config: ModelConfig
    step: int = 0
    ema: dict | None = None
    n_forward_calls: int = 0  # instrumentation for the single-pass accounting

    def n_params(self) -> int:
        return sum(v.size for v in self.tensors.values())


def init_params(config: ModelConfig, rng: np.random.Generator | None = None) -> ParamSet:
    """Fan-in-scaled uniform kernels, zero biases, zero head.

    The zero head makes every initial sigmoid output exactly 0.5.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    ch = config.channels
    stem_in = config.in_channels * config.stem_block**2

    def uniform(shape, fan_in):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    tensors = {
        "stem.w": uniform((ch, stem_in), stem_in),
        "stem.b": np.zeros(ch),
    }
    for i in range(config.n_blocks):
        tensors[f"block{i}.w1"] = uniform((ch, ch, 3, 3), ch * 9)
        tensors[f"block{i}.b1"] = np.zeros(ch)
        tensors[f"block{i}.w2"] = uniform((ch, ch, 3, 3), ch * 9)
        tensors[f"block{i}.b2"] = np.zeros(ch)
    head_in = ch // config.stem_block**2
    tensors["head.w"] = np.zeros((config.head_channels, head_in))
    tensors["head.b"] = np.zeros(config.head_channels)
    return ParamSet(tensors=tensors, config=config)


def encode_input(frames: np.ndarray, config: ModelConfig, lead_idx: int | None = None) -> np.ndarray:
    """Network input from raw rate frames: min-max scaled values with
    sentinels imputed to 0, one validity plane per frame, and (in
    lead-conditioned mode) one-hot lead planes.

    frames: (..., t_in, H, W) raw rates; returns (..., C_in, H, W).
    """
    frames = np.asarray(frames, dtype=np.float64)
    valid = frames != SENTINEL
    scaled = np.where(valid, np.clip(frames, 0.0, config.rate_cap) / config.rate_cap, 0.0)
    planes = [scaled, valid.astype(np.float64)]
    if config.mode == "lead-conditioned":
        if lead_idx is None:
            raise ValueError("lead-conditioned mode needs a lead index")
        onehot = np.zeros(frames.shape[:-3] + (config.t_out,) + frames.shape[-2:])
        onehot[..., lead_idx, :, :] = 1.0
        planes.append(onehot)
    return np.concatenate(planes, axis=-3)


def forward_encoded(params: ParamSet, x_enc: np.ndarray):
    """Network body on an already-encoded (B, C_in, H, W) input, under
    ``params.config``.

    Returns the pre-activation logits tensor shaped (B, T, classes, H, W),
    the tape, and the input leaf (whose .grad holds input attributions after
    a backward sweep).
    """
    config = params.config
    h, w = x_enc.shape[-2:]
    if h % config.stem_block or w % config.stem_block:
        raise ValueError("frame size must be divisible by the stem block")
    if x_enc.shape[1] != config.in_channels:
        raise ValueError(f"expected {config.in_channels} input planes, got {x_enc.shape[1]}")

    params.n_forward_calls += 1
    tape = Tape()
    p = {k: tape.leaf(v) for k, v in params.tensors.items()}
    tape.param_leaves = p
    x = tape.leaf(x_enc)

    hcur = tape.space_to_depth(x, config.stem_block)
    hcur = tape.silu(tape.conv1x1(hcur, p["stem.w"], p["stem.b"]))
    for i in range(config.n_blocks):
        r = tape.conv3x3(hcur, p[f"block{i}.w1"], p[f"block{i}.b1"])
        r = tape.silu(r)
        r = tape.conv3x3(r, p[f"block{i}.w2"], p[f"block{i}.b2"])
        hcur = tape.add(hcur, r)
    hcur = tape.depth_to_space(hcur, config.stem_block)
    logits = tape.conv1x1(hcur, p["head.w"], p["head.b"])

    b = logits.value.shape[0]
    t_axis = 1 if config.mode == "lead-conditioned" else config.t_out
    out = tape.reshape(logits, (b, t_axis, config.classes_per_lead, h, w))
    return out, tape, x


def forward(params: ParamSet, frames: np.ndarray, lead_idx: int | None = None):
    """Run the network on raw frames with the raw parameter tensors.

    frames: (t_in, H, W) or (B, t_in, H, W) raw rates; ``lead_idx`` picks the
    lead time in lead-conditioned mode.  Returns the output tensor -- sigmoid
    conditionals (ordinal) or bucket logits (ce) shaped (B, T, classes, H, W),
    T = 1 in lead-conditioned mode -- plus the tape and input leaf, so callers
    can differentiate: ``out, tape, x = forward(...)``.
    """
    config = params.config
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 3:
        frames = frames[None]
    if frames.shape[1] != config.t_in:
        raise ValueError(f"expected {config.t_in} input frames, got {frames.shape[1]}")
    out, tape, x = forward_encoded(params, encode_input(frames, config, lead_idx))
    if config.loss == "ordinal":
        out = tape.sigmoid(out)
    return out, tape, x


def predict(params: ParamSet, frames: np.ndarray) -> np.ndarray:
    """Exceedance probability cube(s) for raw input frames.

    Runs on the EMA shadow when ``params`` has one, else on the raw tensors:
    one forward pass in single-pass mode, one per lead time in
    lead-conditioned mode, each counted in ``params.n_forward_calls``.
    Ordinal mode reconstructs cumulative products of the conditionals;
    cross-entropy mode applies softmax and tail-sums the bucket
    probabilities.  Either way the result is monotone nonincreasing across
    classes by construction.  Returns (T, K, H, W), or (B, T, K, H, W) for
    batched input.
    """
    config = params.config
    frames = np.asarray(frames, dtype=np.float64)
    squeeze = frames.ndim == 3
    if squeeze:
        frames = frames[None]
    run = ParamSet(params.tensors if params.ema is None else params.ema, config)
    if config.mode == "lead-conditioned":
        raw = np.concatenate([forward(run, frames, lead_idx=t)[0].value
                              for t in range(config.t_out)], axis=1)
    else:
        raw = forward(run, frames)[0].value
    params.n_forward_calls += run.n_forward_calls
    if config.loss == "ordinal":
        cube = reconstruct(raw)
    else:
        cube = bucket_probs_to_exceedance(softmax(raw, axis=2))
    return cube[0] if squeeze else cube


# ---------------------------------------------------------------------------
# training


def batch_loss(params: ParamSet, inputs: np.ndarray, target_rates: np.ndarray,
               bins: BinSet, weights, lead_idx: int | None = None):
    """Tape-recorded loss of one batch under ``params.config``; returns
    (loss_tensor, tape).

    inputs: (B, t_in, H, W) raw frames; target_rates: (B, t_out, H, W).
    In lead-conditioned mode only the ``lead_idx`` slice of the targets is
    scored and lead weights do not apply.
    """
    config = params.config
    cm = exceedance_masks(
        target_rates.reshape(-1, *target_rates.shape[-2:]), bins
    )
    b = target_rates.shape[0]
    masks = cm.masks.reshape(b, config.t_out, config.k_classes, *target_rates.shape[-2:])
    valid = cm.valid.reshape(b, config.t_out, *target_rates.shape[-2:])

    if config.mode == "lead-conditioned":
        masks = masks[:, lead_idx : lead_idx + 1]
        valid = valid[:, lead_idx : lead_idx + 1]
        w = np.ones(1)
    else:
        w = weights.w

    out, tape, _ = forward(params, inputs, lead_idx=lead_idx)
    if config.loss == "ordinal":
        sel = _ordinal_selection(masks, valid)
        loss = tape.masked_bce(out, masks, sel, w[:, None, None, None])
    else:
        loss = tape.masked_softmax_ce(out, _bucket_labels(masks), valid, w[:, None, None], axis=2)
    return loss, tape


def train(dataset, config: ModelConfig, bins: BinSet):
    """AdamW training loop over (input_frames, target_rates) samples.

    dataset: sequence of ((t_in, H, W), (t_out, H, W)) raw-rate pairs.  The
    sample order, batching and every reduction are fixed by ``config.seed``,
    so reruns reproduce the loss curve exactly.  Training starts from
    :func:`init_params`; returns the trained :class:`ParamSet` and the
    per-step loss curve.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    params = init_params(config, rng)
    weights = lead_time_weights(config.alpha, config.t_out)
    m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    v = {k: np.zeros_like(var) for k, var in params.tensors.items()}
    if config.use_ema:
        params.ema = {k: val.copy() for k, val in params.tensors.items()}

    inputs = np.stack([s[0] for s in dataset])
    targets = np.stack([s[1] for s in dataset])
    n = len(dataset)
    order = rng.permutation(n)
    cursor = 0
    curve = []

    for step in range(config.steps):
        take = min(config.batch_size, n)
        if cursor + take > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + take]
        cursor += take
        lead_idx = int(rng.integers(config.t_out)) if config.mode == "lead-conditioned" else None

        loss, tape = batch_loss(params, inputs[idx], targets[idx], bins, weights,
                                lead_idx=lead_idx)
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            raise DivergenceError(f"non-finite loss at step {step}")
        curve.append(loss_val)
        tape.backward(loss)

        params.step += 1
        t = params.step
        b1, b2 = ADAM_BETAS
        # grads live on the tape leaves; fetch them back by name
        grads = _leaf_grads(tape, params)
        for name, p_val in params.tensors.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * g * g
            mhat = m[name] / (1 - b1**t)
            vhat = v[name] / (1 - b2**t)
            p_val -= config.lr * WEIGHT_DECAY * p_val  # decoupled weight decay
            p_val -= config.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        if config.use_ema:
            ema_update(params.ema, params.tensors, config.ema_decay)
    return params, curve


def ema_update(shadow: dict, tensors: dict, decay: float) -> None:
    """shadow <- decay * shadow + (1 - decay) * tensors, in place.

    decay = 0 tracks the raw parameters exactly; for frozen parameters the
    shadow converges to them geometrically.
    """
    for name, p_val in tensors.items():
        shadow[name] = decay * shadow[name] + (1 - decay) * p_val


def _leaf_grads(tape: Tape, params: ParamSet) -> dict:
    """Map parameter names to the gradients accumulated on the tape leaves."""
    return {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
        for name, leaf in tape.param_leaves.items()
    }


# ---------------------------------------------------------------------------
# checkpoints: an artifact (see artifact.py) holding the tensors by sorted
# name, then the EMA shadow in the same order


def save_checkpoint(base: str | Path, params: ParamSet, extra: dict | None = None) -> None:
    names = sorted(params.tensors)
    manifest = {
        "config": asdict(params.config),
        "step": params.step,
        "tensors": {k: list(params.tensors[k].shape) for k in names},
        "has_ema": params.ema is not None,
        **(extra or {}),
    }
    arrays = [params.tensors[k] for k in names]
    if params.ema is not None:
        arrays += [params.ema[k] for k in names]
    artifact.write(base, manifest, arrays)


def load_checkpoint(base: str | Path) -> ParamSet:
    manifest, arrays = artifact.read(base)
    names = sorted(manifest["tensors"])
    tensors = dict(zip(names, arrays))
    ema = dict(zip(names, arrays[len(names):])) if manifest["has_ema"] else None
    config = ModelConfig(**manifest["config"])
    return ParamSet(tensors=tensors, config=config, step=manifest["step"], ema=ema)
