"""Homodyne receiver model, Monte Carlo quadrature sampling, and RF combining.

Sample streams are normalized so a vacuum input has variance equal to the
vacuum quadrature variance (1/4).  Electronic noise enters as an additive
Gaussian whose variance sits ``snc_db`` below the shot level.

Randomness contract: every sample stream comes from
:func:`sample_pixel_streams`.  Channel ``j`` of an ``n``-channel acquisition
draws from ``channel_rng(master_seed, j)`` and the shared squeezed source
from ``channel_rng(master_seed, n)``, so per-channel parallelism can never
reorder the randomness; a single channel is the case ``n = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qpasim.aperture import ChannelSettings
from qpasim.gaussian import GaussianState, SqueezedVacuumSpec, VACUUM_VARIANCE, apply_linear_network, squeezed_vacuum


@dataclass(frozen=True)
class ReceiverModel:
    """Figures of merit of one coherent receiver channel plus its chain.

    ``on_chip_loss_db`` is the total on-chip budget and already contains the
    antenna insertion loss (``antenna_insertion_db``, which coupling
    amplitudes carry) and the photodiode quantum efficiency
    (``pd_efficiency``); the efficiency chain de-embeds both so nothing is
    double counted.
    """

    pd_efficiency: float = 0.70
    snc_db: float = 30.3
    on_chip_loss_db: float = 5.62
    collimator_loss_db: float = 0.8
    antenna_insertion_db: float = 3.78
    rf_loss_db: float = 0.0

    def __post_init__(self):
        # every check is written so that NaN fails it; an infinite snc_db means no electronic noise
        if not self.snc_db >= 0:
            raise ValueError("snc_db must be >= 0")
        for name in ("on_chip_loss_db", "collimator_loss_db", "antenna_insertion_db", "rf_loss_db"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError("%s must be finite and >= 0" % name)
        if not 0.0 <= self.pd_efficiency <= 1.0:
            raise ValueError("pd_efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class PhaseRamp:
    """Linear LO phase ramp: theta(t) = 2 pi frequency t."""

    frequency_hz: float = 0.5
    duration_s: float = 1.0
    sampling_rate: float = 20e6

    def __post_init__(self):
        if not 2 * abs(self.frequency_hz) < self.sampling_rate < np.inf:
            raise ValueError("sampling_rate must be finite and exceed twice the ramp frequency")
        if not 0 < self.duration_s < np.inf:
            raise ValueError("duration must be finite and positive")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sampling_rate))

    def times(self, n_samples: int | None = None) -> np.ndarray:
        n = self.n_samples if n_samples is None else n_samples
        return np.arange(n) / self.sampling_rate

    def phase(self, t: np.ndarray) -> np.ndarray:
        return 2 * np.pi * self.frequency_hz * np.asarray(t)


@dataclass
class MeasurementRecord:
    """Seeded, time-stamped quadrature voltage samples of one channel."""

    channel: int
    samples: np.ndarray
    seed: int
    sampling_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)


def channel_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Generator for stream index ``stream`` derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), int(stream))))


def _electronic_variance(snc_db: float) -> float:
    """Variance of electronic noise ``snc_db`` below the shot level, in quadrature units."""
    return 10 ** (-snc_db / 10) * VACUUM_VARIANCE


def electronic_noise_variance(model: ReceiverModel) -> float:
    """Electronic-noise variance in shot-normalized quadrature units."""
    return _electronic_variance(model.snc_db)


def channel_effective_efficiency(c_j: complex, model: ReceiverModel) -> float:
    """Effective efficiency of one channel from its coupling amplitude.

    Chains |c_j|^2 (which carries geometric loss and antenna insertion loss)
    with the residual on-chip loss, photodiode efficiency, collimator and RF
    losses.
    """
    pd_db = -10 * np.log10(model.pd_efficiency) if model.pd_efficiency > 0 else np.inf
    residual_db = model.on_chip_loss_db - model.antenna_insertion_db - pd_db
    residual_db = max(residual_db, 0.0)
    eta = (
        np.abs(c_j) ** 2
        * 10 ** (-(residual_db + model.collimator_loss_db + model.rf_loss_db) / 10)
        * model.pd_efficiency
    )
    return float(eta)


def sample_pixel_streams(
    couplings: np.ndarray,
    r: float,
    ramp: PhaseRamp,
    n_samples: int,
    master_seed: int,
    lo_phases: np.ndarray | None = None,
    snc_db: float = np.inf,
) -> list[MeasurementRecord]:
    """Correlated per-channel streams of one squeezed beam on the array.

    ``couplings`` are the effective complex amplitudes of the source mode on
    each channel (chain losses folded in, sum |c|^2 <= 1); all channels share
    the same squeezed-source fluctuations, so windowed statistics show the
    coherent modulation across the array.  A single channel of efficiency
    eta is ``couplings=[sqrt(eta)]``.

    ``lo_phases`` offsets each channel's LO phase, which is how RF phase
    settings act on sample streams.  The sign is opposite to the RF phase:
    to stream what ``combine_rf(state, settings)`` forms from the state, pass
    ``lo_phases=-settings.phases`` and combine the records with the same
    ``settings``.
    """
    c = np.asarray(couplings, dtype=complex)
    n_ch = c.size
    offsets = np.zeros(n_ch) if lo_phases is None else np.asarray(lo_phases, dtype=float)
    if c.ndim != 1 or offsets.shape != c.shape:
        raise ValueError("couplings and lo_phases must be 1-D vectors of equal length")
    if not np.sum(np.abs(c) ** 2) <= 1.0 + 1e-9:
        raise ValueError("total coupled power must be finite and must not exceed the input mode")
    if not (snc_db >= 0 and np.all(np.isfinite(offsets))):
        raise ValueError("snc_db must be >= 0 and lo_phases finite")
    if not n_samples >= 1:
        raise ValueError("n_samples must be >= 1")
    src_cov = squeezed_vacuum(SqueezedVacuumSpec(r=r)).cov
    elec_var = _electronic_variance(snc_db)
    base = ramp.phase(ramp.times(n_samples))

    src = channel_rng(master_seed, n_ch)
    xs = src.standard_normal(n_samples) * np.sqrt(src_cov[0, 0])
    ps = src.standard_normal(n_samples) * np.sqrt(src_cov[1, 1])

    records = []
    for j in range(n_ch):
        rng = channel_rng(master_seed, j)
        phase = c[j] * np.exp(-1j * (base + offsets[j]))
        samples = phase.real * xs - phase.imag * ps
        residual = max(0.0, 1.0 - np.abs(c[j]) ** 2)
        samples = samples + rng.standard_normal(n_samples) * np.sqrt(residual * VACUUM_VARIANCE)
        if elec_var > 0:
            samples += rng.standard_normal(n_samples) * np.sqrt(elec_var)
        records.append(
            MeasurementRecord(channel=j, samples=samples, seed=master_seed, sampling_rate=ramp.sampling_rate)
        )
    return records


def combine_rf(x, settings: ChannelSettings):
    """Coherently combine channels with the gain/phase profile.

    The weighted sum sum_j g_j e^{i phi_j} (.) is renormalized by
    sqrt(sum g^2) so a vacuum input keeps variance 1/4.  Accepts either a
    multimode :class:`GaussianState` (returns the combined single-mode
    state) or a sequence of :class:`MeasurementRecord` whose streams were
    generated with the phases applied as LO offsets (returns the combined
    record; in the sample domain phases act at generation time, so only the
    gains enter the sum).  The two agree when the streams were sampled with
    ``lo_phases=-settings.phases``: an RF phase phi is an LO offset -phi.
    """
    norm = np.sqrt(np.sum(settings.gains**2))
    if not norm > 0:
        raise ValueError("at least one gain must be nonzero")
    if isinstance(x, GaussianState):
        row = settings.complex_weights()[np.newaxis, :] / norm
        return apply_linear_network(x, row)
    records: Sequence[MeasurementRecord] = list(x)
    if len(records) != settings.n_channels:
        raise ValueError("need one record per channel")
    rates = {rec.sampling_rate for rec in records}
    lengths = {rec.samples.size for rec in records}
    if len(rates) != 1 or len(lengths) != 1:
        raise ValueError("records must share sampling rate and length")
    combined = np.zeros(lengths.pop())
    for g, rec in zip(settings.gains, records):
        if g != 0:
            combined += g * rec.samples
    return MeasurementRecord(
        channel=-1,
        samples=combined / norm,
        seed=records[0].seed,
        sampling_rate=rates.pop(),
    )


def write_records_csv(records: Iterable[MeasurementRecord], fh) -> None:
    """Serialize records as ``time_s,channel,voltage`` rows."""
    fh.write("time_s,channel,voltage\n")
    for rec in records:
        for t, v in zip(np.arange(rec.samples.size) / rec.sampling_rate, rec.samples):
            fh.write("%.9g,%d,%.9g\n" % (t, rec.channel, v))


def write_records_binary(records: Iterable[MeasurementRecord], fh) -> None:
    """Dump sample streams as little-endian float64, channel-major order."""
    for rec in records:
        fh.write(rec.samples.astype("<f8").tobytes())
