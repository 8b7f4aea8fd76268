"""MIMO channel generation, SNR bookkeeping, and the real-valued embedding.

Conventions fixed here and relied on everywhere else:

* Channel columns are normalized to unit average energy (per-entry
  variance 1/Nr), and the complex noise is white with unit variance per
  receive antenna, so each real noise component has variance 1/2.
* SNR is applied by scaling the transmit symbols.  The receiver works on
  the equivalent scaled channel (`ComplexChannel.scaled`) so detection
  always sees the unit-energy constellation.
"""

from dataclasses import dataclass

import numpy as np

from .modem import Constellation

# per-real-component noise variance after whitening CN(0, I)
REAL_NOISE_VAR = 0.5


@dataclass
class ComplexChannel:
    """Complex MIMO channel with whitened unit-variance noise."""

    h: np.ndarray  # (nr, nt)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        if self.h.ndim != 2 or min(self.h.shape) < 1:
            raise ValueError("channel matrix must be 2-D and nonempty")
        if not np.all(np.isfinite(self.h.view(float))):
            raise ValueError("channel matrix must be finite")

    @property
    def nr(self):
        return self.h.shape[0]

    @property
    def nt(self):
        return self.h.shape[1]

    def scaled(self, snr):
        """Equivalent channel with the transmit SNR scale folded in."""
        return ComplexChannel(np.sqrt(snr_scale(snr, self.nt, self.nr)) * self.h)


@dataclass
class RealChannelModel:
    """Real-valued equivalent system used by the EP detector.

    h_r is the standard embedding [[Re H, -Im H], [Im H, Re H]] and
    y_r = [Re y; Im y].  noise_var is the per-real-component variance and
    is carried explicitly through the detector's likelihood precision.
    """

    h_r: np.ndarray
    y_r: np.ndarray
    constellation: Constellation
    noise_var: float = REAL_NOISE_VAR

    @property
    def n_dims(self):
        return self.h_r.shape[1]


@dataclass
class SnrSpec:
    """SNR operating point with the modulation/code-rate conversions.

    mode is one of 'es' (symbol SNR), 'eb-coded' (energy per bit, coded
    system) or 'eb-uncoded' (E_B, uncoded-referenced).  Conversions:
    Es/N0 = Eb/N0 + 10 log10(log2 M) and E_B/N0 = Eb/N0 + 10 log10(1/R).
    Uncoded systems use code_rate 1.
    """

    mode: str
    value_db: float
    mod_order: int
    code_rate: float = 1.0

    MODES = ("es", "eb-coded", "eb-uncoded")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown SNR mode {self.mode!r}")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code rate must be in (0, 1]")

    @property
    def bits_per_symbol(self):
        return int(np.log2(self.mod_order))

    @property
    def es_n0_db(self):
        mod_gain = 10.0 * np.log10(self.bits_per_symbol)
        if self.mode == "es":
            return self.value_db
        if self.mode == "eb-coded":
            return self.value_db + mod_gain
        # eb-uncoded: E_B = Eb + 10 log10(1/R)
        return self.value_db - 10.0 * np.log10(1.0 / self.code_rate) + mod_gain

    @property
    def eb_n0_db(self):
        mod_gain = 10.0 * np.log10(self.bits_per_symbol)
        return self.es_n0_db - mod_gain

    @property
    def ebu_n0_db(self):
        return self.eb_n0_db + 10.0 * np.log10(1.0 / self.code_rate)


def snr_scale(snr, nt, nr):
    """Transmit power scale for the requested per-receive-antenna Es/N0.

    With unit-energy columns the average received signal power per antenna
    is scale * Nt / Nr, against unit complex noise power.
    """
    if isinstance(snr, SnrSpec):
        es_db = snr.es_n0_db
    else:
        es_db = float(snr)
    return (nr / nt) * 10.0 ** (es_db / 10.0)


def sample_rayleigh(nt, nr, rng, size=None):
    """I.i.d. complex Gaussian channel, per-entry variance 1/Nr.

    With `size` given, returns a stacked array of matrices (size, nr, nt)
    instead of a ComplexChannel; the harness uses that path.
    """
    shape = (nr, nt) if size is None else (size, nr, nt)
    h = rng.normal(scale=np.sqrt(0.5 / nr), size=shape + (2,))
    h = h[..., 0] + 1j * h[..., 1]
    return ComplexChannel(h) if size is None else h


def _exp_corr_sqrt(n, rho):
    """Symmetric square root of the exponential correlation matrix rho^|i-j|."""
    r = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    w, v = np.linalg.eigh(r)
    if np.any(w <= 0):
        raise ValueError("correlation matrix lost positive definiteness")
    return (v * np.sqrt(w)) @ v.T


def sample_correlated(nt, nr, corr_coeff, rng, size=None):
    """Kronecker-correlated Rayleigh channel with exponential correlation.

    H = Rrx^(1/2) Hiid Rtx^(1/2); the exponential model keeps unit average
    column energy, so no renormalization beyond the i.i.d. scaling is
    needed.
    """
    if not 0 <= corr_coeff < 1:
        raise ValueError("correlation coefficient must lie in [0, 1)")
    hiid = sample_rayleigh(nt, nr, rng, size=size if size is not None else 1)
    a = _exp_corr_sqrt(nr, corr_coeff)
    b = _exp_corr_sqrt(nt, corr_coeff)
    h = np.einsum("ij,bjk,kl->bil", a, hiid, b)
    return ComplexChannel(h[0]) if size is None else h


def sample_channels(kind, nt, nr, rho, rng, size):
    """Stacked (size, nr, nt) channels: 'rayleigh', or 'correlated' by rho."""
    if kind == "rayleigh":
        return sample_rayleigh(nt, nr, rng, size=size)
    if kind == "correlated":
        return sample_correlated(nt, nr, rho, rng, size=size)
    raise ValueError(f"unknown channel kind {kind!r}")


def _receive(h, x, rng):
    """y = H x + n over stacked channels (..., nr, nt) and symbols (..., nt)."""
    noise = rng.normal(scale=np.sqrt(REAL_NOISE_VAR),
                       size=x.shape[:-1] + (h.shape[-2], 2))
    return np.einsum("...ij,...j->...i", h, x) + noise[..., 0] + 1j * noise[..., 1]


def observe(h, x, rng):
    """Real model (h_r, y_r) of symbols x (..., nt) sent through stacked,
    already-scaled channels h (..., nr, nt); the noise is drawn last."""
    return real_embedding(h, _receive(h, x, rng))


def transmit(x, ch, snr, rng):
    """Push unit-energy symbols through the channel: y = sqrt(scale) H x + n."""
    x = np.asarray(x)
    if x.shape[-1] != ch.nt:
        raise ValueError(f"expected {ch.nt} symbols, got {x.shape[-1]}")
    return _receive(np.sqrt(snr_scale(snr, ch.nt, ch.nr)) * ch.h, x, rng)


def to_real(ch, y, constellation=None):
    """Real-valued embedding of a complex channel and received vector."""
    h_r, y_r = real_embedding(ch.h, np.asarray(y, dtype=complex))
    return RealChannelModel(h_r=h_r, y_r=y_r, constellation=constellation)


def real_embedding(h, y):
    """Raw embedding of stacked channels (..., nr, nt) and received (..., nr)."""
    h_r = np.block([[h.real, -h.imag], [h.imag, h.real]])
    y_r = np.concatenate([y.real, y.imag], axis=-1)
    return h_r, y_r
