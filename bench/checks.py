"""Output checks that do not trust the program.

Each check returns a list of failure messages, empty when the output is
right.  The references are computed here, apart from the program (a dense
matrix inverse, a bit-serial turbo encoder, finite differences of full
detector runs), or are properties the method must have.  None compares
with stored numbers.
"""

import numpy as np


# -- sweep tables ----------------------------------------------------------


def _ber(row):
    return row["bit_errors"] / row["bits"]


def check_stop_rule(row, min_bit_errors, max_bits):
    """A reported point reached its error target or the bit cap."""
    if row["bit_errors"] < min_bit_errors and row["bits"] < max_bits:
        return [f"{row['variant']} @ {row['snr_db']:g} dB stopped at "
                f"{row['bit_errors']} errors and {row['bits']} bits"]
    return []


def check_bits(row, bits_per_frame):
    """bits = frames x bits per frame."""
    if row["bits"] != row["frames"] * bits_per_frame:
        return [f"{row['variant']} @ {row['snr_db']:g} dB: {row['bits']} "
                f"bits != {row['frames']} frames x {bits_per_frame}"]
    return []


def check_uncoded_table(rows, min_bit_errors, max_bits, bits_per_frame):
    """Failures per (variant, snr) of an mmse/ep sweep table.

    At every point ep's BER is no higher than mmse's (both run the same
    channels chunk by chunk), each variant's BER falls as SNR rises, and
    the stop rule held.
    """
    by = {(r["variant"], r["snr_db"]): r for r in rows}
    fails = {key: [] for key in by}
    for key, r in by.items():
        fails[key] += (check_stop_rule(r, min_bit_errors, max_bits)
                       + check_bits(r, bits_per_frame))
    for variant in {v for v, _ in by}:
        snrs = sorted(s for v, s in by if v == variant)
        for lo, hi in zip(snrs, snrs[1:]):
            if _ber(by[variant, hi]) >= _ber(by[variant, lo]):
                fails[variant, hi].append(
                    f"{variant} BER does not fall from {lo:g} to {hi:g} dB")
    for (variant, snr), r in by.items():
        if variant == "ep" and ("mmse", snr) in by:
            if _ber(r) > _ber(by["mmse", snr]):
                fails[variant, snr].append(
                    f"ep BER {_ber(r):.3e} above mmse "
                    f"{_ber(by['mmse', snr]):.3e} at {snr:g} dB")
    return fails


def check_jdd_table(rows, min_bit_errors, max_bits, message_len):
    """Failures per snr of a jdd sweep table (one row per stage).

    The stop rule holds on the last stage, every stage counts
    frames x K bits, and the last stage's BER is no higher than stage 1's.
    """
    fails = {}
    points = sorted({r["snr_db"] for r in rows})
    for snr in points:
        stages = sorted((r for r in rows if r["snr_db"] == snr),
                        key=lambda r: int(r["variant"].rsplit("s", 1)[1]))
        msgs = check_stop_rule(stages[-1], min_bit_errors, max_bits)
        for r in stages:
            msgs += check_bits(r, message_len)
        if _ber(stages[-1]) > _ber(stages[0]):
            msgs.append(f"stage {len(stages)} BER {_ber(stages[-1]):.3e} "
                        f"above stage 1 {_ber(stages[0]):.3e} at {snr:g} dB")
        fails[snr] = msgs
    return fails


def check_same_rows(rows, reference):
    """Rows equal a previous round's, timing column aside."""
    strip = lambda rs: [{k: v for k, v in r.items() if k != "seconds"}
                        for r in rs]
    if strip(rows) != strip(reference):
        return ["rows differ from the first round's on the same inputs"]
    return []


# -- EP global moments -----------------------------------------------------


def check_global_moments(hth, hty, gamma, lam, mu, sigma_diag, rtol=1e-8):
    """Mean and diagonal variance against a dense inverse of HtH/s2 + Lambda."""
    a = hth + lam[:, :, None] * np.eye(hth.shape[-1])
    sigma = np.linalg.inv(a)
    mu_ref = np.einsum("bij,bj->bi", sigma, hty + gamma)
    var_ref = np.diagonal(sigma, axis1=-2, axis2=-1)
    out = []
    err_mu = np.max(np.abs(mu - mu_ref)) / np.max(np.abs(mu_ref))
    err_var = np.max(np.abs(sigma_diag - var_ref) / var_ref)
    if not err_mu <= rtol:
        out.append(f"global mean off the dense inverse by {err_mu:.2e}")
    if not err_var <= rtol:
        out.append(f"global variance off the dense inverse by {err_var:.2e}")
    return out


# -- turbo encoder ---------------------------------------------------------


def _rsc(bits):
    """8-state RSC, feedback 1 + D^2 + D^3, forward 1 + D + D^3, terminated.

    Returns (parity, tail systematic, tail parity)."""
    d1 = d2 = d3 = 0  # register contents a(t-1), a(t-2), a(t-3)
    parity = []
    for u in bits:
        a = u ^ d2 ^ d3
        parity.append(a ^ d1 ^ d3)
        d1, d2, d3 = a, d1, d2
    tail_sys, tail_par = [], []
    for _ in range(3):
        u = d2 ^ d3  # drives the feedback sum to 0
        tail_sys.append(u)
        tail_par.append(d1 ^ d3)
        d1, d2, d3 = 0, d1, d2
    return parity, tail_sys, tail_par


def reference_encode(msg, f1, f2):
    """Rate-1/2 turbo codeword [sys K | parity K | tail1 6 | tail2 6].

    QPP interleaver pi(i) = (f1 i + f2 i^2) mod K; the parity stream
    takes encoder 1 at odd positions and encoder 2 at even ones; each
    tail block alternates systematic and parity tail bits.
    """
    k = len(msg)
    msg = [int(b) for b in msg]
    perm = [(f1 * i + f2 * i * i) % k for i in range(k)]
    p1, s1, t1 = _rsc(msg)
    p2, s2, t2 = _rsc([msg[p] for p in perm])
    punct = [p1[i] if i % 2 else p2[i] for i in range(k)]
    tail1 = [b for pair in zip(s1, t1) for b in pair]
    tail2 = [b for pair in zip(s2, t2) for b in pair]
    return np.array(msg + punct + tail1 + tail2, dtype=np.int64)


def check_codewords(msgs, codewords, f1, f2):
    out = []
    for i, (m, cw) in enumerate(zip(msgs, codewords)):
        ref = reference_encode(m, f1, f2)
        if cw.shape != ref.shape or np.any(cw != ref):
            out.append(f"codeword {i} differs from the reference encoder")
    return out


# -- training --------------------------------------------------------------


def central_differences(loss, beta, step):
    grad = np.zeros_like(beta)
    for i in range(beta.size):
        up, down = beta.copy(), beta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss(up) - loss(down)) / (2 * step)
    return grad


def check_gradient(grad, reference, rtol=1e-3, atol=1e-12):
    """Gradient against a finite-difference reference, relative to its
    largest component."""
    err = np.max(np.abs(np.asarray(grad) - reference))
    if not err <= rtol * np.max(np.abs(reference)) + atol:
        return [f"gradient off the finite differences by {err:.3e} "
                f"(largest component {np.max(np.abs(reference)):.3e})"]
    return []


def check_not_worse(loss_end, loss_start):
    if not loss_end <= loss_start:
        return [f"trained loss {loss_end:.6e} above the start {loss_start:.6e}"]
    return []


def check_close(value, reference, rtol=1e-9, what="value"):
    if not abs(value - reference) <= rtol * abs(reference):
        return [f"{what} {value!r} differs from the recomputed {reference!r}"]
    return []


def check_directional(loss, params, grads, rng, n_dirs=3, eps=1e-5,
                      rtol=1e-4):
    """Analytic gradient (dict of arrays) along random unit directions
    against central differences of `loss(params)`."""
    out = []
    for _ in range(n_dirs):
        d = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        norm = np.sqrt(sum(float(np.sum(v * v)) for v in d.values()))
        d = {k: v / norm for k, v in d.items()}
        up = {k: params[k] + eps * d[k] for k in params}
        down = {k: params[k] - eps * d[k] for k in params}
        fd = (loss(up) - loss(down)) / (2 * eps)
        an = sum(float(np.sum(grads[k] * d[k])) for k in params)
        if not abs(fd - an) <= rtol * max(abs(fd), abs(an)) + 1e-10:
            out.append(f"directional derivative {an:.6e} vs finite "
                       f"differences {fd:.6e}")
    return out
