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
from dataclasses import dataclass, replace

import numpy as np

from .channel import REAL_NOISE_VAR, SnrSpec, observe, sample_channels, snr_scale
from .epdetect import (
    DampingSchedule,
    EpConfig,
    EpWorkspace,
    _epnet_core,  # unused here; bench/tests/test_tracer.py traces this site
    codeword_frames,
    damp,
    jdd_stage,
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


def _cell_forward(x, h, c, w, u, b, h_out=None, c_out=None):
    """One cell step on gate-major rows: x (I, B), h and c (H, B).

    The gates z = W x + U h + b are a (4H, B) array, so each gate, the
    cell and the hidden state are contiguous rows of B values and every
    elementwise pass runs on whole rows.  Each product gives the values,
    bit for bit, of the batch-major `x @ W.T` and `h @ U.T`.  The new
    states go into `h_out` and `c_out` when given.  `_lstm_forward`
    passes as `h_out` the transposed view of contiguous (B, H) rows,
    because the head's gemv must read those: `w @ h2` on gate-major rows,
    or `h2.T @ w` on their transposed view, runs another BLAS kernel, and
    gave the bits of `h2_rows @ w` in only 27 of 140 random cases.  The
    products that take such a view as x or h keep their bits.  Returns
    (h_new, c_new, (c, s, g, tc)).
    """
    z = w @ x
    z += u @ h
    z += b[:, None]
    s = sigmoid(z[: 3 * HIDDEN])  # input, forget and output gates
    g = np.tanh(z[3 * HIDDEN :])
    c_new = np.multiply(s[HIDDEN : 2 * HIDDEN], c, out=c_out)
    c_new += s[:HIDDEN] * g
    tc = np.tanh(c_new)
    h_new = np.multiply(s[2 * HIDDEN :], tc, out=h_out)
    return h_new, c_new, (c, s, g, tc)


def _cell_backward(dh, dc_in, cache, u, dz):
    """Backpropagate one cell step, writing dL/dz into `dz` (4H, B).

    Gate-major like `_cell_forward`: dh, dc_in and the returned
    (dh_prev, dc_prev) are (H, B) rows, and dh_prev = U^T dz gives the
    bits of the batch-major `dz @ U`.  The caller forms the weight
    gradients dz x^T, dz h^T and the bias gradient, the row sum of dz,
    and the input gradient W^T dz.
    """
    c, s, g, tc = cache
    dc = dc_in + dh * s[2 * HIDDEN :] * (1.0 - tc**2)
    np.multiply(dc, g, out=dz[:HIDDEN])
    np.multiply(dc, c, out=dz[HIDDEN : 2 * HIDDEN])
    np.multiply(dh, tc, out=dz[2 * HIDDEN : 3 * HIDDEN])
    gates = dz[: 3 * HIDDEN]
    gates *= s
    gates *= 1 - s
    cand = np.multiply(dc, s[:HIDDEN], out=dz[3 * HIDDEN :])
    cand *= 1 - g**2
    return u.T @ dz, dc * s[HIDDEN : 2 * HIDDEN]


# exp(-p), the smallest |g| of the log channel, and exp(p), the gain of
# the linear channel below it
_LOG_FLOOR = np.exp(-PREPROCESS_P)
_LINEAR_GAIN = np.exp(PREPROCESS_P)


def _gradient_channels(grad):
    """The log-magnitude and sign channels of `preprocess_gradient`."""
    mag = np.abs(grad)
    big = mag >= _LOG_FLOOR
    log_part = np.where(big, np.log(np.where(big, mag, 1.0)) / PREPROCESS_P,
                        -1.0)
    return log_part, np.where(big, np.sign(grad), _LINEAR_GAIN * grad)


def preprocess_gradient(grad):
    """Two-channel log-magnitude / sign encoding of raw gradients.

    Andrychowicz et al. (2016), section 3.2: (log|g|/p, sign g) when
    |g| >= exp(-p), else (-1, exp(p) g).  The log channel maps |g| in
    [exp(-p), 1] onto [-1, 0] and the sign channel stays in [-1, 1], so a
    gradient of 1e-3 enters the network on the same scale as one of 1
    instead of collapsing onto its zero-input output.
    """
    return np.stack(_gradient_channels(np.asarray(grad, dtype=float)),
                    axis=-1)


def _lstm_forward(theta, grad, state, out=None):
    """Both cells and the head for one step, on gate-major state.

    `state` maps "h1", "c1", "h2" and "c2" to (H, B) rows; the new state
    comes back in that layout.  The input x (2, B) and the hidden states
    are written as transposed views of contiguous (B, .) rows, the layout
    the head's gemv (see `_cell_forward`) and the stacked weight-gradient
    products read.  `out`, when given, maps "x", "h1", "c1", "h2" and
    "c2" to the arrays that receive the input and the new state, with x,
    h1 and h2 such transposed views.  Returns (step, new_state, (cache1,
    cache2)).
    """
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient passed to the optimizer")
    b = grad.size
    out = out or {"x": np.empty((b, ARCH["input"])).T, "c1": None, "c2": None,
                  "h1": np.empty((b, HIDDEN)).T, "h2": np.empty((b, HIDDEN)).T}
    w = theta.weights
    x = out["x"]
    x[0], x[1] = _gradient_channels(np.clip(grad, -GRAD_CLIP, GRAD_CLIP))
    h1, c1, cache1 = _cell_forward(x, state["h1"], state["c1"], w["l1.W"],
                                   w["l1.U"], w["l1.b"], out["h1"], out["c1"])
    h2, c2, cache2 = _cell_forward(h1, state["h2"], state["c2"], w["l2.W"],
                                   w["l2.U"], w["l2.b"], out["h2"], out["c2"])
    step = OUTPUT_SCALE * (h2.T @ w["head.w"] + w["head.b"][0])
    new_state = {"h1": h1, "c1": c1, "h2": h2, "c2": c2}
    return step, new_state, (cache1, cache2)


def lstm_step(theta, grad, state):
    """One optimizer step for a batch of coordinates.

    `grad` holds each coordinate's raw partial derivative; the return is
    (step, new_state) where step is added to the coordinate by the
    caller.  Gradients are clipped to +-GRAD_CLIP and then enter the
    network as the two channels of `preprocess_gradient`; the linear head
    output is scaled by OUTPUT_SCALE.  The states are (n, HIDDEN) arrays,
    as `zero_state` makes them; the network runs on their transposes.
    """
    rows = {k: v.T for k, v in state.items()}
    step, new_rows, _ = _lstm_forward(theta, grad, rows)
    return step, {k: v.T for k, v in new_rows.items()}


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


def _sum_backward_order(terms):
    """terms[T-1] + ... + terms[0], added one at a time onto zeros.

    These are the sums, in order and rounding, of a backward pass that
    adds each step's term to its accumulator as it visits the step.
    """
    zero = np.zeros((1,) + terms.shape[1:])
    return np.cumsum(np.concatenate([zero, terms[::-1]]), axis=0)[-1]


def _unrolled_loss_and_grads(theta, tasks, horizon, beta0, frozen_inputs=None):
    """Roll the optimizer over all task coordinates and backpropagate.

    Gradients of the optimizees with respect to theta are dropped (the
    optimizer input is treated as a constant), so the only theta paths
    run through the LSTM chain itself.  `frozen_inputs` replays a
    recorded input sequence instead of recomputing task gradients, which
    is exactly the dropped-gradient semantics; the recorded inputs come
    back as the third return value.

    All tasks advance together: one stacked (T, d, d) product gives every
    task's gradient, as `QuadraticTask.grad` computes it, operand layout
    included.  The steps write their inputs and hidden states into
    batch-major (T+1, B, .) stacks and their cell states and dL/dz into
    gate-major (T+1, H, B) and (T, 4H, B) ones.  The backward pass keeps only the
    recurrence in its loop; the weight gradients are stacked products
    over all steps, summed in the order a per-step accumulation would add
    them.
    """
    w = theta.weights
    n_tasks, dim = beta0.shape
    b = n_tasks * dim
    a = np.stack([t.w for t in tasks])
    a2t = (2.0 * a).transpose(0, 2, 1)  # laid out as `2.0 * self.w.T`
    q = np.stack([t.q for t in tasks])[..., None]
    beta = beta0.copy()
    # entry t + 1 holds step t's output; entry 0 is the zero state
    h_rows = np.zeros((2, horizon + 1, b, HIDDEN))
    cs = np.zeros((2, horizon + 1, HIDDEN, b))
    x_rows = np.empty((horizon, b, ARCH["input"]))
    caches = []
    inputs = []
    for t_step in range(horizon):
        if frozen_inputs is None:
            grad = (a2t @ (a @ beta[..., None] - q)).reshape(b)
        else:
            grad = frozen_inputs[t_step]
        inputs.append(grad)
        state = {"h1": h_rows[0, t_step].T, "c1": cs[0, t_step],
                 "h2": h_rows[1, t_step].T, "c2": cs[1, t_step]}
        out = {"x": x_rows[t_step].T, "h1": h_rows[0, t_step + 1].T,
               "c1": cs[0, t_step + 1], "h2": h_rows[1, t_step + 1].T,
               "c2": cs[1, t_step + 1]}
        step, _, cache = _lstm_forward(theta, grad, state, out)
        caches.append(cache)
        beta = beta + step.reshape(n_tasks, dim)

    r = a @ beta[..., None] - q
    loss = (r.transpose(0, 2, 1) @ r).sum() / b

    # the same for every t: beta_T = beta_0 + sum steps
    dstep = (a2t @ r).reshape(b) / b
    dh_head = w["head.w"][:, None] * (OUTPUT_SCALE * dstep)
    dz1 = np.empty((horizon, 4 * HIDDEN, b))
    dz2 = np.empty((horizon, 4 * HIDDEN, b))
    dh1 = dc1 = dh2 = dc2 = np.zeros((HIDDEN, b))
    for t_step in reversed(range(horizon)):
        cache1, cache2 = caches[t_step]
        dh2, dc2 = _cell_backward(dh2 + dh_head, dc2, cache2, w["l2.U"],
                                  dz2[t_step])
        dh1, dc1 = _cell_backward(dh1 + w["l2.W"].T @ dz2[t_step], dc1,
                                  cache1, w["l1.U"], dz1[t_step])

    # A product over the B coordinates keeps its bits only on the operand
    # layout it had: dz batch-major, read through its transpose.  One
    # buffer serves both layers; a fresh copy per layer took about 100
    # page faults an epoch, as the heap grew and was trimmed each time.
    grads = {}
    dz = np.empty((horizon, b, 4 * HIDDEN))
    for prefix, dz_rows, x, h in (("l1", dz1, x_rows, h_rows[0, :-1]),
                                  ("l2", dz2, h_rows[0, 1:], h_rows[1, :-1])):
        np.copyto(dz, dz_rows.transpose(0, 2, 1))
        dz_t = dz.transpose(0, 2, 1)
        grads[f"{prefix}.W"] = _sum_backward_order(dz_t @ x)
        grads[f"{prefix}.U"] = _sum_backward_order(dz_t @ h)
        grads[f"{prefix}.b"] = _sum_backward_order(dz.sum(axis=1))
    grads["head.w"] = _sum_backward_order(
        OUTPUT_SCALE * (dstep @ h_rows[1, 1:]))
    grads["head.b"] = _sum_backward_order(
        np.full((horizon, 1), OUTPUT_SCALE * dstep.sum()))
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
    stabilizes it.  Each phase gets the floor of its share, at least one
    epoch, and the first phase also gets what the floors leave over, so a
    budget of 3 or more runs exactly that many epochs (10 runs 7 + 2 + 1)
    and a budget of 1 or 2 runs 3.  A budget below 1 is an error.
    Returns (theta, concatenated loss curve), one curve entry per epoch.
    """
    if total_epochs < 1:
        raise ValueError(
            f"meta-training needs at least 1 epoch, got {total_epochs}")
    rng = rng or np.random.default_rng()
    epochs = np.maximum(np.array([4, 2, 1]) * total_epochs // 7, 1)
    epochs[0] += max(total_epochs - epochs.sum(), 0)
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


def _descend(loss_fn, grad_fn, beta_init, n_steps, step_rule):
    """Run `step_rule(beta, grad) -> next beta` for `n_steps` epochs.

    A non-finite loss stops the run early; the best iterate seen so far
    is always reported.
    """
    beta = np.atleast_1d(np.asarray(beta_init, dtype=float)).copy()
    betas = [beta.copy()]
    losses = [float(loss_fn(beta))]
    best_beta, best_loss = beta.copy(), losses[0]
    for _ in range(n_steps):
        beta = step_rule(beta, np.asarray(grad_fn(beta), dtype=float))
        val = float(loss_fn(beta))
        betas.append(beta.copy())
        losses.append(val)
        if not np.isfinite(val):
            break
        if val < best_loss:
            best_beta, best_loss = beta.copy(), val
    return OptimizerRun(np.stack(betas), np.asarray(losses), best_beta, best_loss)


def apply_optimizer(theta, loss_fn, grad_fn, beta_init, n_steps):
    """Drive an arbitrary objective with the trained LSTM optimizer.

    Coordinates update in parallel with shared weights but separate
    states.  A non-finite loss stops the run early; the best iterate seen
    so far is always reported.
    """
    state = zero_state(np.size(beta_init))

    def lstm_rule(beta, grad):
        nonlocal state
        step, state = lstm_step(theta, grad, state)
        return beta + step

    return _descend(loss_fn, grad_fn, beta_init, n_steps, lstm_rule)


def adam_minimize(loss_fn, grad_fn, beta_init, n_steps, lr=0.1):
    """Baseline: Adam on the same objective, one step per epoch."""
    adam = Adam(lr=lr)

    def adam_rule(beta, grad):
        params = {"beta": beta}
        adam.step(params, {"beta": grad})
        return params["beta"]

    return _descend(loss_fn, grad_fn, beta_init, n_steps, adam_rule)


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


def _first_stage_set(h_r, y_r, x_r, constellation, init_lambda):
    """A first detection stage's training set: uniform priors and the
    initial site pair (zero gamma, `init_lambda`) on every dimension."""
    b, n = x_r.shape
    m = constellation.n_amplitudes
    return EpTrainingSet(
        h_r=h_r,
        y_r=y_r,
        x_r=x_r,
        prior_probs=np.full((b, n, m), 1.0 / m),
        init_gamma=np.zeros((b, n)),
        init_lambda=np.full((b, n), init_lambda),
        constellation=constellation,
    )


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
    return _first_stage_set(h_r, y_r, x_r, c, EpConfig().init_lambda)


def _workspace_for(dataset, layers, min_var, workspace=None):
    """EP workspace for `dataset`'s priors and initial site pair.

    `workspace`, when given, was built on the same channels and
    observations (an earlier JDD stage of one training set); it is
    pointed at this dataset's priors and initial pair and returned, so
    H^T H is not computed again.
    """
    cfg = EpConfig(
        layers=layers,
        min_var=min_var,
        init_gamma=dataset.init_gamma,
        init_lambda=dataset.init_lambda,
    )
    if workspace is None:
        return EpWorkspace(dataset.h_r, dataset.y_r, dataset.noise_var,
                           dataset.prior_probs, dataset.constellation, cfg)
    workspace.probs, workspace.config = dataset.prior_probs, cfg
    return workspace


# the central-difference step of the online damping gradient
_FD_STEP = 1e-3


def _output_mse(x_ab, dataset):
    return float(np.mean(np.sum((x_ab - dataset.x_r) ** 2, axis=-1)))


def _recorded_loss(beta_raw, dataset, ws):
    """`epnet_loss_and_grad`'s loss, and the records its gradient needs.

    The central differences warm-start from layers 0..L-2, so those are
    recorded; the last layer only runs to its cavity.
    """
    _, _, recs = ws.run(beta_raw[:-1])
    pair = (recs[-1]["gamma_out"], recs[-1]["lam_out"]) if recs else None
    x_out, _, _ = ws.run(beta_raw, start_layer=beta_raw.size - 1, pair=pair,
                         record=False)
    return _output_mse(x_out, dataset), recs


def _fd_gradient(beta_raw, dataset, ws, recs, fd_step):
    """`epnet_loss_and_grad`'s gradient from `_recorded_loss`'s records.

    Each side of the difference at layer i is a tail run from the damped
    update of layer i; the last coordinate's gradient is 0.
    """
    grad = np.zeros_like(beta_raw)
    for i in range(beta_raw.size - 1):
        sides = []
        for sign in (1.0, -1.0):
            b = beta_raw.copy()
            b[i] += sign * fd_step
            pair = damp((recs[i]["gamma_in"], recs[i]["lam_in"]),
                        (recs[i]["cand_gamma"], recs[i]["cand_lam"]), b[i])
            x_tail, _, _ = ws.run(b, start_layer=i + 1, pair=pair,
                                  record=False)
            sides.append(_output_mse(x_tail, dataset))
        grad[i] = (sides[0] - sides[1]) / (2 * fd_step)
    return grad


def epnet_loss_and_grad(beta_raw, dataset, min_var=5e-7, fd_step=_FD_STEP,
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
    beta_raw = np.asarray(beta_raw, dtype=float)
    ws = workspace or _workspace_for(dataset, beta_raw.size, min_var)
    center, recs = _recorded_loss(beta_raw, dataset, ws)
    return center, _fd_gradient(beta_raw, dataset, ws, recs, fd_step)


def train_schedule(theta, dataset, layers, epochs=100, beta_init=1.0,
                   plateau_tol=1e-4, plateau_window=10, min_var=5e-7,
                   workspace=None):
    """Train one stage's damping schedule with the LSTM optimizer.

    `beta_init` is the raw starting schedule, a scalar or one value per
    layer.  The last layer's damping acts after the emitted cavity, so
    its gradient is exactly 0 and training leaves it at its starting
    value: the LSTM still runs on all L coordinates, and that
    coordinate's step is dropped.  Stops early once the relative loss
    improvement over the plateau window falls below the tolerance.  The
    losses and gradients are `epnet_loss_and_grad`'s, but an iterate's
    gradient is computed only when the optimizer steps from it, so the
    last iterate costs its loss alone.  Returns (schedule, loss curve),
    where the schedule is the best iterate seen, so training never ends
    worse than its starting point on the training set.  `workspace` is
    an EP workspace already set up for `dataset` (see `_workspace_for`);
    by default one is built.
    """
    beta = np.broadcast_to(np.asarray(beta_init, dtype=float),
                           (layers,)).copy()
    state = zero_state(layers)
    ws = workspace or _workspace_for(dataset, layers, min_var)
    loss, recs = _recorded_loss(beta, dataset, ws)
    losses = [loss]
    best_beta, best_loss = beta.copy(), loss
    for _ in range(epochs):
        grad = _fd_gradient(beta, dataset, ws, recs, _FD_STEP)
        del recs  # the next loss records its own; hold one set at a time
        step, state = lstm_step(theta, grad, state)
        step[-1] = 0.0
        beta = beta + step
        loss, recs = _recorded_loss(beta, dataset, ws)
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
    """Codeword frames for JDD training, drawn as a sweep draws a chunk.

    `codeword_frames` draws `stats.n_samples` frames of the receiver's
    code with one channel per block.  Returns (h_r (B, P, 2nr, 2nt),
    y_r (B, P, 2nr), x_r (B, P, 2nt), msgs (B, K)), where x_r is the
    real embedding of the sent symbols.
    """
    msgs, syms, h_r, y_r = codeword_frames(
        receiver.codec, receiver.constellation, stats.kind, stats.nt,
        stats.nr, stats.rho, snr_scale(stats.snr, stats.nt, stats.nr),
        stats.n_samples, rng)
    x_r = np.concatenate([syms.real, syms.imag], axis=-1)
    return h_r, y_r, x_r, msgs


def online_train(receiver, channel_stats, theta, epochs=100, rng=None,
                 plateau_tol=1e-4, plateau_window=10):
    """Online-train the damping schedules of every receiver stage.

    A receiver without a codec has one stage, trained on
    `generate_training_set`'s detection instances.  A JDD receiver
    trains on `_codeword_training_set`'s frames, one detection instance
    per block.  Each stage starts from its row of `receiver.schedules`
    and keeps the best iterate seen, so epochs=0 returns the receiver's
    schedules unchanged.  Stages train sequentially on one EP workspace:
    stage i sees the priors and initial site pairs that a frozen pass of
    the trained stage i-1 (`jdd_stage`, then `stage_feedback`) produces
    over the same frames.  Returns (the receiver with the trained
    schedules, list of loss curves).
    """
    rng = rng or np.random.default_rng(channel_stats.seed)
    if channel_stats.n_samples < 1:
        raise ValueError("channel statistics dataset is empty")
    cfg = receiver.config
    if receiver.codec is None:
        if receiver.n_stages != 1:
            raise ValueError("a codec-free receiver has exactly one stage")
        dataset = generate_training_set(channel_stats, rng)
    else:
        frames = _codeword_training_set(receiver, channel_stats, rng)[:3]
        h_r, y_r, x_r = (a.reshape(-1, *a.shape[2:]) for a in frames)
        dataset = _first_stage_set(h_r, y_r, x_r, receiver.constellation,
                                   cfg.init_lambda)

    schedules = []
    curves = []
    ws = None  # one workspace, hence one H^T H, for every stage
    for stage, start in enumerate(receiver.schedules):
        if stage:
            # a frozen pass of the stage just trained gives this stage's
            # priors and initial pair
            _, ext = jdd_stage(ws, schedules[-1], receiver)
            probs, gamma, lam = stage_feedback(ext, receiver, channel_stats.nt)
            dataset = replace(dataset, prior_probs=probs, init_gamma=gamma,
                              init_lambda=lam)
        ws = _workspace_for(dataset, receiver.layers, cfg.min_var, ws)
        sched, curve = train_schedule(
            theta, dataset, receiver.layers, epochs, beta_init=start,
            plateau_tol=plateau_tol, plateau_window=plateau_window,
            min_var=cfg.min_var, workspace=ws,
        )
        schedules.append(sched.raw)
        curves.append(curve)
    return replace(receiver, schedules=np.stack(schedules)), curves
