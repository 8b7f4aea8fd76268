"""Learned LSTM optimizer for the detector's damping factors.

A coordinatewise two-layer LSTM (5 hidden units per layer) maps a
parameter's raw gradient to its additive update step.  The gradient is
clipped and then encoded as (log-magnitude, sign) following Andrychowicz
et al. (2016), so small gradients reach the network on an O(1) scale
instead of collapsing onto its zero-input response.  It is meta-trained
offline on random L-dimensional quadratics, unrolled for T steps with
gradients treated as constants with respect to the optimizer weights
(no second derivatives), and a single Adam update of the weights per
epoch.  Online, the same network drives the damping factors of each
detection stage, starting from the stage's current schedule, using
finite-difference gradients of the MSE of the emitted (final-layer)
cavity mean, so no autodiff machinery is needed anywhere.
"""

import json
from dataclasses import dataclass

import numpy as np

from .channel import REAL_NOISE_VAR, SnrSpec, observe, sample_channels, snr_scale
from .epdetect import (
    DampingSchedule,
    EpConfig,
    JddReceiver,
    _epnet_core,
    sigmoid,
    stage_feedback,
)
from .modem import Constellation, map_bits

HIDDEN = 5
GRAD_CLIP = 10.0
PREPROCESS_P = 10.0
OUTPUT_SCALE = 0.1
ARCH = {"layers": 2, "hidden": HIDDEN, "input": 2, "grad_clip": GRAD_CLIP,
        "preprocess_p": PREPROCESS_P, "output_scale": OUTPUT_SCALE}

_SHAPES = {
    "l1.W": (4 * HIDDEN, ARCH["input"]),
    "l1.U": (4 * HIDDEN, HIDDEN),
    "l1.b": (4 * HIDDEN,),
    "l2.W": (4 * HIDDEN, HIDDEN),
    "l2.U": (4 * HIDDEN, HIDDEN),
    "l2.b": (4 * HIDDEN,),
    "head.w": (HIDDEN,),
    "head.b": (1,),
}


@dataclass
class LstmOptimizerParams:
    """All trainable weights of the two-layer coordinatewise LSTM optimizer."""

    weights: dict

    def __post_init__(self):
        missing = set(_SHAPES) - set(self.weights)
        if missing:
            raise ValueError(f"missing parameter arrays: {sorted(missing)}")
        for name, shape in _SHAPES.items():
            arr = np.asarray(self.weights[name], dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            self.weights[name] = arr

    @classmethod
    def init(cls, rng, scale=0.1):
        w = {name: scale * rng.standard_normal(shape) for name, shape in _SHAPES.items()}
        for layer in ("l1", "l2"):
            w[f"{layer}.b"] = np.zeros(4 * HIDDEN)
            w[f"{layer}.b"][HIDDEN : 2 * HIDDEN] = 1.0  # forget gate bias
        w["head.b"] = np.zeros(1)
        return cls(w)

    def copy(self):
        return LstmOptimizerParams({k: v.copy() for k, v in self.weights.items()})

    def to_doc(self):
        return {
            "schema": 1,
            "arch": dict(ARCH),
            "weights": {
                name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                for name, arr in self.weights.items()
            },
        }

    @classmethod
    def from_doc(cls, doc):
        if doc.get("schema") != 1:
            raise ValueError("unsupported optimizer schema")
        arch = doc.get("arch", {})
        if (arch.get("layers") != 2 or arch.get("hidden") != HIDDEN
                or arch.get("input") != ARCH["input"]):
            raise ValueError("architecture mismatch")
        weights = {}
        for name, entry in doc["weights"].items():
            weights[name] = np.asarray(entry["data"], dtype=float).reshape(entry["shape"])
        return cls(weights)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_doc(json.load(fh))


def zero_state(n_coords):
    """Fresh per-coordinate hidden and cell states for both layers."""
    return {k: np.zeros((n_coords, HIDDEN)) for k in ("h1", "c1", "h2", "c2")}


def _cell_forward(x, h, c, w, u, b):
    z = x @ w.T + h @ u.T + b
    i = sigmoid(z[:, :HIDDEN])
    f = sigmoid(z[:, HIDDEN : 2 * HIDDEN])
    o = sigmoid(z[:, 2 * HIDDEN : 3 * HIDDEN])
    g = np.tanh(z[:, 3 * HIDDEN :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    return h_new, c_new, (x, h, c, i, f, o, g, tc)


def _cell_backward(dh, dc_in, cache, w, u, grads, prefix):
    x, h, c, i, f, o, g, tc = cache
    dc = dc_in + dh * o * (1.0 - tc**2)
    di = dc * g
    df = dc * c
    do = dh * tc
    dg = dc * i
    dz = np.concatenate(
        [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g**2)],
        axis=1,
    )
    grads[f"{prefix}.W"] += dz.T @ x
    grads[f"{prefix}.U"] += dz.T @ h
    grads[f"{prefix}.b"] += dz.sum(axis=0)
    dx = dz @ w
    dh_prev = dz @ u
    dc_prev = dc * f
    return dx, dh_prev, dc_prev


def preprocess_gradient(grad):
    """Two-channel log-magnitude / sign encoding of raw gradients.

    Andrychowicz et al. (2016), section 3.2: (log|g|/p, sign g) when
    |g| >= exp(-p), else (-1, exp(p) g).  The log channel maps |g| in
    [exp(-p), 1] onto [-1, 0] and the sign channel stays in [-1, 1], so a
    gradient of 1e-3 enters the network on the same scale as one of 1
    instead of collapsing onto its zero-input output.
    """
    grad = np.asarray(grad, dtype=float)
    mag = np.abs(grad)
    big = mag >= np.exp(-PREPROCESS_P)
    log_part = np.where(big, np.log(np.where(big, mag, 1.0)) / PREPROCESS_P,
                        -1.0)
    sign_part = np.where(big, np.sign(grad), np.exp(PREPROCESS_P) * grad)
    return np.stack([log_part, sign_part], axis=-1)


def _lstm_forward(theta, grad, state):
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient passed to the optimizer")
    w = theta.weights
    x = preprocess_gradient(np.clip(grad, -GRAD_CLIP, GRAD_CLIP))
    h1, c1, cache1 = _cell_forward(x, state["h1"], state["c1"],
                                   w["l1.W"], w["l1.U"], w["l1.b"])
    h2, c2, cache2 = _cell_forward(h1, state["h2"], state["c2"],
                                   w["l2.W"], w["l2.U"], w["l2.b"])
    step = OUTPUT_SCALE * (h2 @ w["head.w"] + w["head.b"][0])
    new_state = {"h1": h1, "c1": c1, "h2": h2, "c2": c2}
    return step, new_state, (cache1, cache2, h2)


def lstm_step(theta, grad, state):
    """One optimizer step for a batch of coordinates.

    `grad` holds each coordinate's raw partial derivative; the return is
    (step, new_state) where step is added to the coordinate by the
    caller.  Gradients are clipped to +-GRAD_CLIP and then enter the
    network as the two channels of `preprocess_gradient`; the linear head
    output is scaled by OUTPUT_SCALE.
    """
    step, new_state, _ = _lstm_forward(theta, grad, state)
    return step, new_state


@dataclass
class QuadraticTask:
    """f(beta) = ||W beta - q||^2 with standard normal W, q."""

    w: np.ndarray
    q: np.ndarray

    @classmethod
    def sample(cls, dim, rng):
        return cls(rng.standard_normal((dim, dim)), rng.standard_normal(dim))

    def value(self, beta):
        r = self.w @ beta - self.q
        return float(r @ r)

    def grad(self, beta):
        return 2.0 * self.w.T @ (self.w @ beta - self.q)


def quad_grad(task, beta):
    """Exact gradient 2 W^T (W beta - q)."""
    return task.grad(np.asarray(beta, dtype=float))


class Adam:
    """Standard first/second-moment adaptive update over a dict of arrays."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = None, None, 0

    def step(self, params, grads):
        if self.m is None:
            self.m = {k: np.zeros_like(v) for k, v in params.items()}
            self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k in params:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            params[k] -= self.lr * (self.m[k] / bc1) / (
                np.sqrt(self.v[k] / bc2) + self.eps
            )


def _unrolled_loss_and_grads(theta, tasks, horizon, beta0, frozen_inputs=None):
    """Roll the optimizer over all task coordinates and backpropagate.

    Gradients of the optimizees with respect to theta are dropped (the
    optimizer input is treated as a constant), so the only theta paths
    run through the LSTM chain itself.  `frozen_inputs` replays a
    recorded input sequence instead of recomputing task gradients, which
    is exactly the dropped-gradient semantics; the recorded inputs come
    back as the third return value.
    """
    w = theta.weights
    n_tasks, dim = beta0.shape
    b = n_tasks * dim
    beta = beta0.copy()
    state = zero_state(b)
    caches = []
    inputs = []
    for t_step in range(horizon):
        if frozen_inputs is None:
            grad = np.stack([t.grad(beta[j]) for j, t in enumerate(tasks)])
            grad = grad.reshape(b)
        else:
            grad = frozen_inputs[t_step]
        inputs.append(grad)
        step, state, cache = _lstm_forward(theta, grad, state)
        caches.append(cache)
        beta = beta + step.reshape(n_tasks, dim)

    losses = np.array([t.value(beta[j]) for j, t in enumerate(tasks)])
    loss = losses.sum() / b

    dbeta = np.stack([t.grad(beta[j]) for j, t in enumerate(tasks)]) / b
    dstep = dbeta.reshape(b)  # same for every t: beta_T = beta_0 + sum steps
    grads = {k: np.zeros_like(v) for k, v in w.items()}
    dh1 = np.zeros((b, HIDDEN))
    dc1 = np.zeros((b, HIDDEN))
    dh2 = np.zeros((b, HIDDEN))
    dc2 = np.zeros((b, HIDDEN))
    for cache1, cache2, h2 in reversed(caches):
        grads["head.w"] += OUTPUT_SCALE * (dstep @ h2)
        grads["head.b"][0] += OUTPUT_SCALE * dstep.sum()
        dh2_t = dh2 + OUTPUT_SCALE * dstep[:, None] * w["head.w"][None, :]
        dx2, dh2, dc2 = _cell_backward(dh2_t, dc2, cache2, w["l2.W"], w["l2.U"],
                                       grads, "l2")
        dh1_t = dh1 + dx2
        _, dh1, dc1 = _cell_backward(dh1_t, dc1, cache1, w["l1.W"], w["l1.U"],
                                     grads, "l1")
    return loss, grads, inputs


def meta_train(epochs=100, tasks_per_epoch=20, horizon=20, dim=5, rng=None,
               lr=1e-3, theta=None):
    """Meta-train the LSTM optimizer on freshly drawn quadratic tasks.

    Every epoch draws new tasks, reinitializes the optimizees at 1, rolls
    the unrolled chain, and applies one Adam update to theta.  Returns
    (theta, per-epoch loss curve).
    """
    rng = rng or np.random.default_rng()
    theta = theta.copy() if theta is not None else LstmOptimizerParams.init(rng)
    adam = Adam(lr=lr)
    curve = np.empty(epochs)
    beta0 = np.ones((tasks_per_epoch, dim))
    for epoch in range(epochs):
        tasks = [QuadraticTask.sample(dim, rng) for _ in range(tasks_per_epoch)]
        loss, grads, _ = _unrolled_loss_and_grads(theta, tasks, horizon, beta0)
        if not np.isfinite(loss):
            raise RuntimeError(f"meta-training diverged at epoch {epoch}")
        adam.step(theta.weights, grads)
        curve[epoch] = loss
    return theta, curve


def meta_train_recipe(total_epochs=14000, rng=None, dim=5):
    """Staged meta-training schedule used to produce the shipped optimizer.

    Splits the epoch budget 4:2:1 over learning rates 3e-3, 1e-3, 3e-4;
    the long first phase finds the descent behavior and the decayed tail
    stabilizes it.  Returns (theta, concatenated loss curve).
    """
    rng = rng or np.random.default_rng()
    split = np.array([4, 2, 1]) / 7.0
    epochs = np.maximum((split * total_epochs).astype(int), 1)
    theta = None
    curves = []
    for n, lr in zip(epochs, (3e-3, 1e-3, 3e-4)):
        theta, curve = meta_train(epochs=int(n), lr=lr, rng=rng, theta=theta,
                                  dim=dim)
        curves.append(curve)
    return theta, np.concatenate(curves)


@dataclass
class OptimizerRun:
    """Trajectory of one optimization run: betas (T+1, L), losses (T+1,)."""

    betas: np.ndarray
    losses: np.ndarray
    best_beta: np.ndarray
    best_loss: float


def apply_optimizer(theta, loss_fn, grad_fn, beta_init, n_steps):
    """Drive an arbitrary objective with the trained LSTM optimizer.

    Coordinates update in parallel with shared weights but separate
    states.  A non-finite loss stops the run early; the best iterate seen
    so far is always reported.
    """
    beta = np.atleast_1d(np.asarray(beta_init, dtype=float)).copy()
    state = zero_state(beta.size)
    betas = [beta.copy()]
    losses = [float(loss_fn(beta))]
    best_beta, best_loss = beta.copy(), losses[0]
    for _ in range(n_steps):
        grad = np.asarray(grad_fn(beta), dtype=float)
        step, state = lstm_step(theta, grad, state)
        beta = beta + step
        val = float(loss_fn(beta))
        betas.append(beta.copy())
        losses.append(val)
        if not np.isfinite(val):
            break
        if val < best_loss:
            best_beta, best_loss = beta.copy(), val
    return OptimizerRun(np.stack(betas), np.asarray(losses), best_beta, best_loss)


def adam_minimize(loss_fn, grad_fn, beta_init, n_steps, lr=0.1):
    """Baseline: Adam on the same objective, one step per epoch."""
    beta = np.atleast_1d(np.asarray(beta_init, dtype=float)).copy()
    adam = Adam(lr=lr)
    betas = [beta.copy()]
    losses = [float(loss_fn(beta))]
    best_beta, best_loss = beta.copy(), losses[0]
    for _ in range(n_steps):
        grads = {"beta": np.asarray(grad_fn(beta), dtype=float)}
        params = {"beta": beta}
        adam.step(params, grads)
        beta = params["beta"]
        val = float(loss_fn(beta))
        betas.append(beta.copy())
        losses.append(val)
        if not np.isfinite(val):
            break
        if val < best_loss:
            best_beta, best_loss = beta.copy(), val
    return OptimizerRun(np.stack(betas), np.asarray(losses), best_beta, best_loss)


# ---------------------------------------------------------------------------
# detector training objective


@dataclass
class ChannelStats:
    """Stationary statistics the receiver generates its own labels from."""

    nt: int
    nr: int
    mod_order: int
    snr: SnrSpec
    kind: str = "rayleigh"  # 'rayleigh' | 'correlated'
    rho: float = 0.0
    n_samples: int = 5000
    seed: int = 0

    def constellation(self):
        return Constellation(self.mod_order)


@dataclass
class EpTrainingSet:
    """Labeled detection instances (h_r, y_r, true x_r) plus stage inputs."""

    h_r: np.ndarray
    y_r: np.ndarray
    x_r: np.ndarray
    prior_probs: np.ndarray
    init_gamma: np.ndarray
    init_lambda: np.ndarray
    constellation: Constellation
    noise_var: float = REAL_NOISE_VAR


def generate_training_set(stats, rng=None):
    """Draw labeled (x, y, H) realizations from the channel statistics."""
    if stats.n_samples < 1:
        raise ValueError("channel statistics dataset is empty")
    rng = rng or np.random.default_rng(stats.seed)
    c = stats.constellation()
    b, nt, nr = stats.n_samples, stats.nt, stats.nr
    # H before the bits, unlike the sweeps: this order fixes every
    # trained schedule
    h = np.sqrt(snr_scale(stats.snr, nt, nr)) * sample_channels(
        stats.kind, nt, nr, stats.rho, rng, b)
    bits = rng.integers(0, 2, (b, nt * c.bits_per_symbol))
    x = map_bits(bits, c)
    h_r, y_r = observe(h, x, rng)
    x_r = np.concatenate([x.real, x.imag], axis=-1)
    n, m = 2 * nt, c.n_amplitudes
    return EpTrainingSet(
        h_r=h_r,
        y_r=y_r,
        x_r=x_r,
        prior_probs=np.full((b, n, m), 1.0 / m),
        init_gamma=np.zeros((b, n)),
        init_lambda=np.full((b, n), EpConfig().init_lambda),
        constellation=c,
    )


def _workspace_for(dataset, layers, min_var):
    from .epdetect import EpWorkspace

    cfg = EpConfig(
        layers=layers,
        min_var=min_var,
        init_gamma=dataset.init_gamma,
        init_lambda=dataset.init_lambda,
    )
    return EpWorkspace(dataset.h_r, dataset.y_r, dataset.noise_var,
                       dataset.prior_probs, dataset.constellation, cfg)


def epnet_loss_and_grad(beta_raw, dataset, min_var=5e-7, fd_step=1e-3,
                        workspace=None):
    """Output-layer MSE and its central-difference gradient on raw beta.

    The loss is the batch mean of ||x_ab^(L) - x||^2, the error of the
    final layer's cavity mean: exactly the moments the detector emits to
    the demapper.  (Averaging over all L cavities instead rewards fast,
    high damping in the early layers and misplaces the optimum at high
    SNR.)  The gradient uses one central difference per coordinate.
    Perturbing the damping of layer i only changes layers after i, so
    each difference evaluation warm-starts from the center run's cached
    state instead of recomputing the whole detector.  The last damping
    factor acts after the emitted cavity, so its gradient is exactly 0.
    """
    from .epdetect import damp

    beta_raw = np.asarray(beta_raw, dtype=float)
    n_layers = beta_raw.size
    ws = workspace or _workspace_for(dataset, n_layers, min_var)

    def output_loss(x_ab):
        return float(np.mean(np.sum((x_ab - dataset.x_r) ** 2, axis=-1)))

    # the warm starts need layers 0..L-2 recorded; the last layer only
    # its cavity
    _, _, recs = ws.run(beta_raw[:-1])
    pair = (recs[-1]["gamma_out"], recs[-1]["lam_out"]) if recs else None
    x_out, _, _ = ws.run(beta_raw, start_layer=n_layers - 1, pair=pair,
                         record=False)
    center = output_loss(x_out)

    grad = np.zeros_like(beta_raw)
    for i in range(n_layers - 1):
        sides = []
        for sign in (1.0, -1.0):
            b = beta_raw.copy()
            b[i] += sign * fd_step
            pair = damp((recs[i]["gamma_in"], recs[i]["lam_in"]),
                        (recs[i]["cand_gamma"], recs[i]["cand_lam"]), b[i])
            x_tail, _, _ = ws.run(b, start_layer=i + 1, pair=pair,
                                  record=False)
            sides.append(output_loss(x_tail))
        grad[i] = (sides[0] - sides[1]) / (2 * fd_step)
    return center, grad


def train_schedule(theta, dataset, layers, epochs=100, beta_init=1.0,
                   plateau_tol=1e-4, plateau_window=10, min_var=5e-7):
    """Train one stage's damping schedule with the LSTM optimizer.

    `beta_init` is the raw starting schedule, a scalar or one value per
    layer.  The last layer's damping acts after the emitted cavity, so
    its gradient is exactly 0 and training leaves it at its starting
    value: the LSTM still runs on all L coordinates, and that
    coordinate's step is dropped.  Stops early once the relative loss
    improvement over the plateau window falls below the tolerance.
    Returns (schedule, loss curve), where the schedule is the best
    iterate seen, so training never ends worse than its starting point
    on the training set.
    """
    beta = np.broadcast_to(np.asarray(beta_init, dtype=float),
                           (layers,)).copy()
    state = zero_state(layers)
    losses = []
    ws = _workspace_for(dataset, layers, min_var)
    loss, grad = epnet_loss_and_grad(beta, dataset, min_var, workspace=ws)
    losses.append(loss)
    best_beta, best_loss = beta.copy(), loss
    for _ in range(epochs):
        step, state = lstm_step(theta, grad, state)
        step[-1] = 0.0
        beta = beta + step
        loss, grad = epnet_loss_and_grad(beta, dataset, min_var, workspace=ws)
        losses.append(loss)
        if np.isfinite(loss) and loss < best_loss:
            best_beta, best_loss = beta.copy(), loss
        if not np.isfinite(loss):
            break
        if len(losses) > plateau_window:
            prev = losses[-1 - plateau_window]
            if prev - losses[-1] < plateau_tol * max(prev, 1e-12):
                break
    return DampingSchedule(best_beta), np.asarray(losses)


def _codeword_training_set(receiver, stats, rng):
    """Codeword-level dataset for JDD training: per-block channels and labels."""
    from .epdetect import frame_geometry
    from .turbocode import encode

    c = receiver.constellation
    codec = receiver.codec
    nt, nr = stats.nt, stats.nr
    n_sym, n_blocks, filler = frame_geometry(codec, c, nt)
    q2 = c.bits_per_symbol
    b = stats.n_samples
    msgs = rng.integers(0, 2, (b, codec.k))
    tx = np.empty((b, n_blocks * nt * q2), dtype=np.int64)
    tx[:, : codec.n_coded] = encode(msgs, codec)
    for f in range(b):
        tx[f, codec.n_coded :] = rng.integers(0, 2, filler * q2)
    syms = map_bits(tx, c).reshape(b, n_blocks, nt)
    h = sample_channels(stats.kind, nt, nr, stats.rho, rng, b * n_blocks)
    h = np.sqrt(snr_scale(stats.snr, nt, nr)) * h.reshape(b, n_blocks, nr, nt)
    h_r, y_r = observe(h, syms, rng)
    x_r = np.concatenate([syms.real, syms.imag], axis=-1)
    return h_r, y_r, x_r, msgs


def online_train(receiver, channel_stats, theta, epochs=100, rng=None,
                 plateau_tol=1e-4, plateau_window=10):
    """Online-train the damping schedules of every receiver stage.

    Each stage starts from its row of `receiver.schedules` and keeps the
    best iterate seen, so epochs=0 returns the receiver's schedules
    unchanged.  Stages train sequentially: stage i sees the priors and
    initial site pairs produced by running the already-trained stages
    1..i-1 over the generated dataset.  Returns (trained receiver, list
    of loss curves).
    """
    rng = rng or np.random.default_rng(channel_stats.seed)
    if channel_stats.n_samples < 1:
        raise ValueError("channel statistics dataset is empty")
    cfg = receiver.config
    layers = receiver.layers

    if receiver.codec is None:
        # pure detection: one stage trained on uniform-prior instances
        if receiver.n_stages != 1:
            raise ValueError("a codec-free receiver has exactly one stage")
        dataset = generate_training_set(channel_stats, rng)
        sched, curve = train_schedule(
            theta, dataset, layers, epochs, beta_init=receiver.schedules[0],
            plateau_tol=plateau_tol, plateau_window=plateau_window,
            min_var=cfg.min_var,
        )
        trained = JddReceiver(
            codec=None, constellation=receiver.constellation,
            schedules=sched.raw[None, :], config=cfg,
        )
        return trained, [curve]

    from .modem import demap_llr
    from .turbocode import _decode_batch

    c = receiver.constellation
    h_r, y_r, x_r, _ = _codeword_training_set(receiver, channel_stats, rng)
    b, n_blocks = h_r.shape[:2]
    nt = h_r.shape[-1] // 2
    m = c.n_amplitudes
    flat = lambda a: a.reshape(-1, *a.shape[2:])

    prior_probs = np.full((b * n_blocks, 2 * nt, m), 1.0 / m)
    init_gamma = np.zeros((b * n_blocks, 2 * nt))
    init_lambda = np.full((b * n_blocks, 2 * nt), cfg.init_lambda)

    schedules = []
    curves = []
    for stage in range(receiver.n_stages):
        dataset = EpTrainingSet(
            h_r=flat(h_r), y_r=flat(y_r), x_r=flat(x_r),
            prior_probs=prior_probs, init_gamma=init_gamma,
            init_lambda=init_lambda, constellation=c,
        )
        sched, curve = train_schedule(
            theta, dataset, layers, epochs,
            beta_init=receiver.schedules[stage],
            plateau_tol=plateau_tol, plateau_window=plateau_window,
            min_var=cfg.min_var,
        )
        schedules.append(sched.raw)
        curves.append(curve)

        if stage + 1 < receiver.n_stages:
            # frozen forward pass of this stage to build the next stage inputs
            stage_cfg = EpConfig(layers=layers, min_var=cfg.min_var,
                                 init_gamma=init_gamma, init_lambda=init_lambda)
            x_ab, v_ab, _ = _epnet_core(
                dataset.h_r, dataset.y_r, dataset.noise_var,
                prior_probs, c, sched.raw, stage_cfg, record=False,
            )
            llr = demap_llr(x_ab, v_ab, prior_probs, c)
            llr_frame = llr.reshape(b, -1)[:, : receiver.codec.n_coded]
            _, _, ext = _decode_batch(
                llr_frame, receiver.codec, receiver.decoder_iters,
                want_feedback=True,
            )
            prior_probs, init_gamma, init_lambda = stage_feedback(
                ext, receiver, nt)

    trained = JddReceiver(
        codec=receiver.codec, constellation=c,
        schedules=np.stack(schedules), config=cfg,
        decoder_iters=receiver.decoder_iters,
        feedback_scale=receiver.feedback_scale,
    )
    return trained, curves
