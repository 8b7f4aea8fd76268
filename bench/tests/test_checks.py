"""Each check passes on the program's output and fails on a corrupted one."""

import numpy as np
import pytest

import checks
import run
import workloads
from epturbo.epdetect import _global_moments_batch
from epturbo.metaopt import (
    LstmOptimizerParams,
    QuadraticTask,
    _unrolled_loss_and_grads,
    _workspace_for,
    epnet_loss_and_grad,
    generate_training_set,
)
from epturbo.turbocode import TurboCodec, encode


@pytest.mark.parametrize("k", [40, 64])
def test_reference_encoder_and_flipped_bit(k):
    f1f2 = workloads.QPP[k]
    codec = TurboCodec(k=k)
    msgs = np.random.default_rng(k).integers(0, 2, (8, k))
    words = [encode(m, codec) for m in msgs]
    assert checks.check_codewords(msgs, words, *f1f2) == []
    words[3] = words[3].copy()
    words[3][2 * k + 1] ^= 1
    assert len(checks.check_codewords(msgs, words, *f1f2)) == 1


def test_global_moments_against_dense_inverse():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((16, 8, 8))
    hth = np.einsum("bri,brj->bij", h, h) / 0.5
    hty = rng.standard_normal((16, 8))
    gamma = rng.standard_normal((16, 8))
    lam = rng.uniform(0.05, 5.0, (16, 8))
    mu, var, _ = _global_moments_batch(hth, hty, gamma, lam)
    assert checks.check_global_moments(hth, hty, gamma, lam, mu, var) == []
    bad = mu.copy()
    bad[5, 2] *= 1 + 1e-6
    assert checks.check_global_moments(hth, hty, gamma, lam, bad, var)
    bad = var.copy()
    bad[0, 0] *= 1 + 1e-6
    assert checks.check_global_moments(hth, hty, gamma, lam, mu, bad)


def row(variant, snr, bits, errs, frames=None, seconds=0.1):
    frames = bits // 32 if frames is None else frames
    return {"variant": variant, "snr_db": float(snr), "bits": bits,
            "bit_errors": errs, "frames": frames, "frame_errors": 0,
            "seconds": seconds}


def uncoded_rows():
    return [row("mmse", 9, 3200, 400), row("mmse", 11, 3200, 200),
            row("ep", 9, 3200, 300), row("ep", 11, 6400, 150)]


def test_uncoded_table_checks():
    ok = checks.check_uncoded_table(uncoded_rows(), 150, 6400, 32)
    assert all(not m for m in ok.values())
    rows = uncoded_rows()
    rows[2]["bit_errors"] = 500  # ep above mmse at 9 dB
    assert checks.check_uncoded_table(rows, 150, 6400, 32)["ep", 9.0]
    rows = uncoded_rows()
    rows[1]["bit_errors"] = 450  # mmse BER rises with SNR
    assert checks.check_uncoded_table(rows, 150, 6400, 32)["mmse", 11.0]
    rows = uncoded_rows()
    rows[3]["bit_errors"] = 100  # ep stopped short of both targets
    rows[3]["bits"] = 3200
    rows[3]["frames"] = 100
    assert checks.check_uncoded_table(rows, 150, 6400, 32)["ep", 11.0]
    rows = uncoded_rows()
    rows[0]["frames"] += 1  # bits != frames x bits per frame
    assert checks.check_uncoded_table(rows, 150, 6400, 32)["mmse", 9.0]


def test_jdd_table_checks():
    rows = [row(f"jdd-s{i}", 10, 6400, e, frames=100)
            for i, e in zip((1, 2, 10), (300, 250, 200))]
    assert checks.check_jdd_table(rows, 200, 6400, 64) == {10.0: []}
    rows[2]["bit_errors"] = 301  # the 10th stage is the last, not jdd-s2
    assert checks.check_jdd_table(rows, 200, 6400, 64)[10.0]


def test_same_rows_ignores_only_the_timing_column():
    a = uncoded_rows()
    b = [dict(r, seconds=9.0) for r in a]
    assert checks.check_same_rows(b, a) == []
    b[0]["bit_errors"] += 1
    assert checks.check_same_rows(b, a)


@pytest.fixture(scope="module")
def small_training():
    train = workloads.Training(4, "unused", run.ROOT)
    train.setup()
    train.stats.n_samples = 200
    dataset = generate_training_set(train.stats,
                                    np.random.default_rng(train.stats.seed))
    return train, dataset


def test_gradient_check_and_perturbed_gradient(small_training):
    train, dataset = small_training
    ws = _workspace_for(dataset, 5, 5e-7)
    loss, grad = epnet_loss_and_grad(train.start, dataset, workspace=ws)
    assert checks.check_close(loss, train.full_loss(dataset, train.start)) == []
    ref = checks.central_differences(
        lambda b: train.full_loss(dataset, b), train.start, workloads.FD_STEP)
    assert checks.check_gradient(grad, ref) == []
    bad = grad.copy()
    bad[1] += 0.01 * np.max(np.abs(grad))
    assert checks.check_gradient(bad, ref)
    assert checks.check_close(loss * (1 + 1e-6), loss)


def test_loss_not_worse():
    assert checks.check_not_worse(1.0, 1.0) == []
    assert checks.check_not_worse(1.0 + 1e-12, 1.0)


def test_lstm_gradient_check_and_perturbed_gradient():
    rng = np.random.default_rng(5)
    theta = LstmOptimizerParams.init(rng)
    tasks = [QuadraticTask.sample(5, rng) for _ in range(4)]
    beta0 = np.ones((4, 5))
    _, grads, inputs = _unrolled_loss_and_grads(theta, tasks, 10, beta0)

    def loss(w):
        return _unrolled_loss_and_grads(LstmOptimizerParams(w), tasks, 10,
                                        beta0, frozen_inputs=inputs)[0]

    assert checks.check_directional(loss, theta.weights, grads,
                                    np.random.default_rng(1)) == []
    bad = {k: v.copy() for k, v in grads.items()}
    bad["l1.W"] *= 1.01
    assert checks.check_directional(loss, theta.weights, bad,
                                    np.random.default_rng(1))
