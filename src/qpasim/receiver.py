"""Homodyne receiver model, Monte Carlo quadrature sampling, and RF combining.

Sample streams are normalized so a vacuum input has variance equal to the
vacuum quadrature variance (1/4).  Electronic noise enters as an additive
Gaussian whose variance sits ``snc_db`` below the shot level.

Randomness contract: every sample stream comes from
:func:`sample_pixel_streams`.  Channel ``j`` of an ``n``-channel acquisition
draws one stream from ``channel_rng(master_seed, j)`` and the shared squeezed
source draws x, then p, from ``channel_rng(master_seed, n)``; a single
channel is ``n = 1``.  The sampler walks time in blocks and splits each
block over at most two threads, by channel for the draws and by time for the
mixing.  Every stream keeps its own generator (the source's is duplicated,
and the copy skips the ``n_samples`` x draws to reach p) and every other step
is elementwise in time, so the output is bit for bit the same for any block
size and any number of threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qpasim.aperture import ChannelSettings
from qpasim.gaussian import GaussianState, SqueezedVacuumSpec, VACUUM_VARIANCE, apply_linear_network, squeezed_vacuum

# the sampler's time block (2^14 and 2^18 ran slower) and thread count, and the CSV writer's rows per write
# (512 to 8192 rows write equally fast; design_sweep's peak RSS, set by heap layout, was lowest at 2048)
_CHUNK = 1 << 16
_WORKERS = min(2, os.cpu_count() or 1)
_CSV_BLOCK = 2048


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

    def times(self, n_samples: int) -> np.ndarray:
        return np.arange(n_samples) / self.sampling_rate

    def phase(self, t: np.ndarray) -> np.ndarray:
        return 2 * np.pi * self.frequency_hz * np.asarray(t)


@dataclass
class MeasurementRecord:
    """Seeded, time-stamped quadrature voltage samples of one channel, read at LO offset ``lo_phase``."""

    channel: int
    samples: np.ndarray
    seed: int
    sampling_rate: float
    lo_phase: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)


def channel_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Generator for stream index ``stream`` derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), int(stream))))


def electronic_noise_variance(model: ReceiverModel) -> float:
    """Electronic-noise variance ``snc_db`` below the shot level, in shot-normalized quadrature units."""
    return 10 ** (-model.snc_db / 10) * VACUUM_VARIANCE


def channel_effective_efficiency(c_j: complex, model: ReceiverModel) -> float:
    """Effective efficiency of one channel from its coupling amplitude.

    Chains |c_j|^2 (which carries geometric and antenna insertion loss) with
    the on-chip loss beyond the antenna insertion, never less than the
    photodiode's own loss, and the collimator and RF losses.
    """
    if not abs(c_j) <= 1.0:
        raise ValueError("c_j must be finite with |c_j| <= 1")
    pd_db = -10 * np.log10(model.pd_efficiency) if model.pd_efficiency > 0 else np.inf
    loss_db = max(model.on_chip_loss_db - model.antenna_insertion_db, pd_db)
    loss_db += model.collimator_loss_db + model.rf_loss_db
    return float(np.abs(c_j) ** 2 * np.power(10.0, -loss_db / 10))


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
    each channel (chain losses folded in, sum |c|^2 <= 1).  The streams have
    the covariance of :func:`apply_linear_network` with matrix ``c`` on the
    squeezed source plus vacuum, read at each channel's LO phase, plus
    electronic noise e.  With d = c e^{-i lo_phases}, channel j is the shared
    source term Re(d_j) u + Im(d_j) v, where (u, v) are the source quadratures
    at the ramp phase, plus noise of covariance (1/4 + e) I - Re(d d^dag)/4:
    the vacuum entering channel j is correlated with channel k's.  A single
    channel of efficiency eta is ``couplings=[sqrt(eta)]``.

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
    if not np.all(np.isfinite(offsets)):
        raise ValueError("lo_phases must be finite")
    if not n_samples >= 1:
        raise ValueError("n_samples must be >= 1")
    sigma = np.sqrt(VACUUM_VARIANCE + electronic_noise_variance(ReceiverModel(snc_db=snc_db)))
    # the outputs come before the block scratch: the other order put acquisition's peak RSS 5 MB higher (heap layout)
    streams = [np.empty(n_samples) for _ in range(n_ch)]
    chunk = min(_CHUNK, n_samples)
    workers = _WORKERS if n_samples > chunk else 1
    src_cov = squeezed_vacuum(SqueezedVacuumSpec(r=r)).cov
    sx, sp = np.sqrt(src_cov[0, 0]), np.sqrt(src_cov[1, 1])
    d = c * np.exp(-1j * offsets)
    # the noise covariance is sigma^2 (I - b b^T); its square root I - b K b^T is finite at lambda = 0 and 1
    b = np.stack([d.real, d.imag], axis=1) * (0.5 / sigma)
    lam, q = np.linalg.eigh(b.T @ b)
    k = (q / (1.0 + np.sqrt(np.clip(1.0 - lam, 0.0, None)))) @ q.T
    # scratch is allocated here, on the calling thread, as separate arrays; the workers write into it with out=
    scratch = [np.empty(chunk) for _ in range(10)]
    xs, ps = scratch[0], scratch[1]
    # the source draws x, then p, from one generator: a second copy of it skips the n_samples x draws
    src_x, src_p = channel_rng(master_seed, n_ch), channel_rng(master_seed, n_ch)
    skip = [(src_p, ps[:min(chunk, n_samples - a)]) for a in range(0, n_samples, chunk)]
    gens = [src_x, src_p] + [channel_rng(master_seed, j) for j in range(n_ch)]

    def draw(pairs):
        for gen, dest in pairs:
            gen.standard_normal(out=dest)

    def mix(block, theta, s, e):
        x, p, px, pp, cos, sin, u, v, tmp, tmp2 = (a[s:e] for a in scratch)
        x *= sx
        p *= sp
        # b^T eps, accumulated in channel order so the sum never depends on a BLAS kernel
        px.fill(0.0)
        pp.fill(0.0)
        for j in range(n_ch):
            px += np.multiply(block[j][s:e], b[j, 0], out=tmp)
            pp += np.multiply(block[j][s:e], b[j, 1], out=tmp)
        np.cos(theta[s:e], out=cos)
        np.sin(theta[s:e], out=sin)
        # sigma b_j = d_j / 2, so channel j's noise projection on b joins its source term:
        # u = cos x + sin p - (k00 px + k01 pp) / 2 and v = sin x - cos p - (k10 px + k11 pp) / 2
        np.multiply(cos, x, out=u)
        u += np.multiply(sin, p, out=tmp)
        np.multiply(sin, x, out=v)
        v -= np.multiply(cos, p, out=tmp)
        for w, (k0, k1) in zip((u, v), k):
            np.multiply(px, k0, out=tmp)
            tmp += np.multiply(pp, k1, out=tmp2)
            tmp *= 0.5
            w -= tmp
        for j in range(n_ch):
            samples = block[j][s:e]
            samples *= sigma
            samples += np.multiply(u, d[j].real, out=tmp)
            samples += np.multiply(v, d[j].imag, out=tmp)

    for start in range(0, n_samples, chunk):
        m = min(chunk, n_samples - start)
        block = [row[start:start + m] for row in streams]
        pairs = list(zip(gens, [xs[:m], ps[:m]] + block))
        groups = [pairs[w::workers] for w in range(workers)]
        if start == 0:  # src_p, pairs[1], draws in group 1 % workers, after its skip
            groups[1 % workers][:0] = skip
        _in_parallel([lambda g=g: draw(g) for g in groups])
        # ramp.times(n_samples)[start:start + m], without the prefix
        theta = ramp.phase(np.arange(start, start + m) / ramp.sampling_rate)
        bounds = [m * w // workers for w in range(workers + 1)]
        _in_parallel([lambda s=s, e=e: mix(block, theta, s, e) for s, e in zip(bounds, bounds[1:])])
    return [MeasurementRecord(channel=j, samples=samples, seed=master_seed, sampling_rate=ramp.sampling_rate,
                              lo_phase=float(offsets[j])) for j, samples in enumerate(streams)]


def _in_parallel(tasks) -> None:
    """Run ``tasks[0]`` on the calling thread and each other task on a thread of its own; re-raise the first error."""
    errors = []

    def guarded(task):
        try:
            task()
        except Exception as exc:  # raised again on the calling thread once every task has ended
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(task,)) for task in tasks[1:]]
    for thread in threads:
        thread.start()
    guarded(tasks[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def combine_rf(x, settings: ChannelSettings):
    """Coherently combine channels with the gain/phase profile.

    The weighted sum sum_j g_j e^{i phi_j} (.) is renormalized by
    sqrt(sum g^2) so a vacuum input keeps variance 1/4.  Accepts either a
    multimode :class:`GaussianState` (returns the combined single-mode
    state) or a sequence of :class:`MeasurementRecord` whose streams were
    generated with the phases applied as LO offsets (returns the combined
    record; in the sample domain phases act at generation time, so only the
    gains enter the sum).  Records of nonzero gain must be sampled with
    ``lo_phases=-settings.phases`` (mod 2 pi): an RF phase phi is an LO offset -phi.
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
    offset_error = np.remainder([rec.lo_phase for rec in records] + settings.phases + np.pi, 2 * np.pi) - np.pi
    if not np.all((settings.gains == 0) | (np.abs(offset_error) <= 1e-12)):
        raise ValueError("records must be sampled at LO offsets -settings.phases")
    n_samples = lengths.pop()
    combined, tmp = np.zeros(n_samples), np.empty(n_samples)
    for g, rec in zip(settings.gains, records):
        if g != 0:
            combined += np.multiply(rec.samples, g, out=tmp)
    combined /= norm
    return MeasurementRecord(
        channel=-1,
        samples=combined,
        seed=records[0].seed,
        sampling_rate=rates.pop(),
    )


def write_records_csv(records: Iterable[MeasurementRecord], fh) -> None:
    """Serialize records as ``time_s,channel,voltage`` rows, formatted ``%.9g,%d,%.9g``."""
    fh.write("time_s,channel,voltage\n")
    for rec in records:
        row = "%%.9g,%d,%%.9g\n" % rec.channel
        size = rec.samples.size
        for start in range(0, size, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, size)
            pairs = np.empty((stop - start, 2))
            pairs[:, 0] = np.arange(start, stop) / rec.sampling_rate
            pairs[:, 1] = rec.samples[start:stop]
            fh.write((row * (stop - start)) % tuple(pairs.ravel().tolist()))


def write_records_binary(records: Iterable[MeasurementRecord], fh) -> None:
    """Dump sample streams as little-endian float64, channel-major order."""
    for rec in records:
        fh.write(np.ascontiguousarray(rec.samples, dtype="<f8"))
