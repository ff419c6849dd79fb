"""Homodyne receiver model, Monte Carlo quadrature sampling, RF combining, and record writers.

Sample streams are normalized so a vacuum input has variance equal to the
vacuum quadrature variance (1/4).  Electronic noise enters as an additive
Gaussian whose variance sits ``snc_db`` below the shot level.

Randomness contract: every sample stream comes from :func:`sample_pixel_streams`, the law of its docstring applied
to these normals.  Channel ``j`` of an ``n``-channel acquisition draws its normals eps_j from
``channel_rng(master_seed, j)``, and the shared squeezed source's x and p are the first and second ``n_samples``
normals of ``channel_rng(master_seed, n)``; a single channel is ``n = 1``.  ``channel_rng`` checks the seeds: a
master seed or stream index that is not an integer >= 0 raises ValueError.  The sampler walks time in blocks and
splits each block over at most two threads, by channel for the draws and by time for the mixing.  Every stream
keeps its own generator, and the source's is duplicated so that x and p come out of its one stream: the copy
first draws and discards the ``n_samples`` x values on the calling thread, so its draws in the block loop are
the p values.  Every other step is elementwise in time, so the output is bit for bit the same for any block size
and any number of threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from qpasim.aperture import ChannelSettings, CouplingVector
from qpasim.gaussian import (GaussianState, VACUUM_VARIANCE, _integer, _real, apply_linear_network,
                             lossy_squeezed_variances)

# the sampler's time block (2^14 and 2^18 ran slower) and thread count, and the CSV writer's rows per write
# (a 2048-row block of 48-byte rows, 98 304 B for a channel of up to 6 characters, stays under glibc's 128 KiB
# mmap threshold; 4096-row blocks of 64-byte rows page-faulted about 130 times per 4096-row record, and their
# throughput spread 5x wider between runs)
_CHUNK = 1 << 16
_WORKERS = min(2, os.cpu_count() or 1)
_CSV_BLOCK = 2048
# time-slot blocks cached per process (2 MiB at 2048 rows); every block's times come from the cache, so a record
# longer than _TIME_SLOT_BLOCKS * _CSV_BLOCK rows just evicts the least recently used blocks
_TIME_SLOT_BLOCKS = 64
# the sampling-rate floor of PhaseRamp and MeasurementRecord, about 1.03e-289 Hz
_MIN_RATE = 2.0**64 / np.finfo(float).max


@dataclass(frozen=True)
class ReceiverModel:
    """Figures of merit of one coherent receiver channel after its antenna.

    ``chip_loss_db`` is the on-chip loss after the antenna, photodiode included: the reference hardware's 5.62 dB
    on-chip budget less its 3.78 dB antenna insertion loss, which ``ApertureGeometry.insertion_loss_db`` owns.
    """

    snc_db: float = 30.3
    chip_loss_db: float = 5.62 - 3.78
    collimator_loss_db: float = 0.8

    def __post_init__(self):
        # every check is written so that NaN fails it; an infinite snc_db means no electronic noise
        if not _real(self.snc_db, "snc_db") >= 0:
            raise ValueError("snc_db must be >= 0")
        for name in ("chip_loss_db", "collimator_loss_db"):
            if not 0 <= _real(getattr(self, name), name) < np.inf:
                raise ValueError("%s must be finite and >= 0" % name)


@dataclass(frozen=True)
class PhaseRamp:
    """Linear LO phase ramp: theta(t) = 2 pi frequency t; frozen.

    ``sampling_rate`` is finite, above twice the ramp frequency and at least 2^64 / DBL_MAX (about 1.03e-289 Hz),
    so the last stamp (n - 1) / sampling_rate of any array NumPy can index (n <= 2^63) is at most DBL_MAX / 2.
    """

    frequency_hz: float = 0.5
    duration_s: float = 1.0
    sampling_rate: float = 20e6

    def __post_init__(self):
        if not (_MIN_RATE <= _real(self.sampling_rate, "sampling_rate") < np.inf
                and 2 * abs(_real(self.frequency_hz, "frequency_hz")) < self.sampling_rate):
            raise ValueError("sampling_rate must be finite, >= %g and exceed twice the ramp frequency" % _MIN_RATE)
        if not 0 < _real(self.duration_s, "duration_s") < np.inf:
            raise ValueError("duration must be finite and positive")

    def times(self, n_samples: int) -> np.ndarray:
        if not _integer(n_samples, "n_samples") >= 0:
            raise ValueError("n_samples must be >= 0")
        return np.arange(n_samples) / self.sampling_rate

    def phase(self, t: np.ndarray) -> np.ndarray:
        return 2 * np.pi * self.frequency_hz * np.asarray(t)


@dataclass(frozen=True)
class MeasurementRecord:
    """Seeded, time-stamped quadrature voltage samples of one channel, read at LO offset ``lo_phase``; frozen.

    ``sampling_rate`` has the floor of :class:`PhaseRamp`, so every stamp k / sampling_rate is finite.  A float
    ``samples`` array is kept, not copied (32 records of 8 MiB would be held twice): writing into it changes the record.
    """

    channel: int
    samples: np.ndarray
    seed: int
    sampling_rate: float
    lo_phase: float = 0.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        object.__setattr__(self, "channel", _integer(self.channel, "channel"))
        if not _integer(self.seed, "seed") >= 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(self, "samples", _real(self.samples, "samples"))
        if self.samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if not _MIN_RATE <= _real(self.sampling_rate, "sampling_rate") < np.inf:
            raise ValueError("sampling_rate must be finite and >= %g" % _MIN_RATE)
        if not -np.inf < _real(self.lo_phase, "lo_phase") < np.inf:
            raise ValueError("lo_phase must be finite")


def channel_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Generator for stream index ``stream`` derived from the master seed; rejects either unless an integer >= 0."""
    if not (_integer(master_seed, "master_seed") >= 0 and _integer(stream, "stream") >= 0):
        raise ValueError("master_seed and stream must be >= 0")
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), int(stream))))


def electronic_noise_variance(model: ReceiverModel) -> float:
    """Electronic-noise variance ``snc_db`` below the shot level, in shot-normalized quadrature units."""
    return 10 ** (-model.snc_db / 10) * VACUUM_VARIANCE


def channel_effective_efficiency(c_j: complex, model: ReceiverModel) -> float:
    """Efficiency min(1, |c_j|^2 10^(-(chip_loss_db + collimator_loss_db) / 10)), c_j bounded by CouplingVector."""
    CouplingVector([c_j])
    loss_db = model.chip_loss_db + model.collimator_loss_db
    return min(1.0, float(np.abs(c_j) ** 2 * np.power(10.0, -loss_db / 10)))


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

    ``couplings`` are the effective complex amplitudes c of the source mode on each channel (chain losses folded
    in).  At ramp phase theta, channel j is L_j(theta) . (x, p, eps_1 ... eps_n) in the normals of the randomness
    contract (module notes).  With d = c e^{-i lo_phases}, D = [Re d, Im d] (n x 2), sx^2 and sp^2 the source's
    principal variances, sigma^2 = 1/4 + e for electronic noise e, B = D / (2 sigma) and K the 2 x 2 matrix that
    makes (I - B K B^T)^2 = I - B B^T,

        L(theta) = [D R(theta) diag(sx, sp) | sigma (I - B K B^T)],    R(theta) = [[cos, sin], [sin, -cos]].

    So L L^T = D R diag(sx^2, sp^2) R^T D^T + sigma^2 I - D D^T / 4: the covariance of
    ``qpasim.chain.source_state(c e^{-i theta}, r)``, the source spread by the column c with vacuum in the other
    ports, read at each channel's LO offset, plus e I; the vacuum entering channel j is correlated with channel k's.
    In ``tests/test_receiver.py``, ``test_law_carries_the_oracle_covariance`` checks L L^T against that oracle and
    ``test_records_are_the_law_on_the_drawn_normals`` the records against L(theta_t) on the drawn normals, so given
    iid normals the sampled covariance is exact.  A single channel of efficiency eta is ``couplings=[sqrt(eta)]``.
    The record that ``combine_rf`` forms from the streams of ``couplings=sqrt(kappa) c`` has the principal variances
    of ``qpasim.chain.predict(c, kappa, r, settings, model)``, the oracle it is checked against.

    ``lo_phases`` offsets each channel's LO phase, which is how RF phase settings act on sample streams.  The
    sign is opposite to the RF phase: to stream what ``combine_rf(state, settings)`` forms from the state, pass
    ``lo_phases=-settings.phases`` and combine the records with the same ``settings``.

    The owners of the inputs check them before any output is allocated: :class:`CouplingVector` the couplings,
    :class:`SqueezedVacuumSpec` ``r``, :class:`ReceiverModel` ``snc_db`` and :func:`channel_rng` ``master_seed``.
    The law reads ``lo_phases`` before any :class:`MeasurementRecord` checks its LO offset, so they are checked
    finite here, with their shape.
    """
    c = CouplingVector(couplings).c
    offsets = np.zeros(c.size) if lo_phases is None else _real(lo_phases, "lo_phases")
    if offsets.shape != c.shape or not np.isfinite(offsets).all():
        raise ValueError("couplings and lo_phases must be 1-D vectors of equal length, lo_phases finite")
    if not _integer(n_samples, "n_samples") >= 1:
        raise ValueError("n_samples must be >= 1")
    sigma, sx, sp, d, b, k = _stream_law(c, offsets, r, snc_db)
    # channel_rng checks master_seed before any allocation; the source draws x from gens[0], p from its copy gens[1]
    gens = [channel_rng(master_seed, c.size) for _ in range(2)] + [channel_rng(master_seed, j) for j in range(c.size)]
    # the outputs come before the block scratch: the other order put acquisition's peak RSS 5 MB higher (heap layout)
    records = [MeasurementRecord(channel=j, samples=np.empty(n_samples), seed=master_seed,
                                 sampling_rate=ramp.sampling_rate, lo_phase=float(offsets[j])) for j in range(c.size)]
    chunk = min(_CHUNK, n_samples)
    workers = _WORKERS if n_samples > chunk else 1
    # scratch is allocated here, on the calling thread, as separate arrays; the workers write into it with out=
    scratch = [np.empty(chunk) for _ in range(10)]
    # gens[1] first discards the n_samples x values, so its draws in the block loop are the p values
    for a in range(0, n_samples, chunk):
        gens[1].standard_normal(out=scratch[1][:min(chunk, n_samples - a)])

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
        for j in range(c.size):
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
        for j in range(c.size):
            samples = block[j][s:e]
            samples *= sigma
            samples += np.multiply(u, d[j].real, out=tmp)
            samples += np.multiply(v, d[j].imag, out=tmp)

    for start in range(0, n_samples, chunk):
        m = min(chunk, n_samples - start)
        block = [rec.samples[start:start + m] for rec in records]
        pairs = list(zip(gens, [a[:m] for a in scratch[:2]] + block))
        _in_parallel([lambda g=pairs[w::workers]: draw(g) for w in range(workers)])
        # ramp.times(n_samples)[start:start + m], without the prefix
        theta = ramp.phase(np.arange(start, start + m) / ramp.sampling_rate)
        bounds = [m * w // workers for w in range(workers + 1)]
        _in_parallel([lambda s=s, e=e: mix(block, theta, s, e) for s, e in zip(bounds, bounds[1:])])
    return records


def _stream_law(c: np.ndarray, offsets: np.ndarray, r: float, snc_db: float):
    """(sigma, sx, sp, d, b, k) of the law L(theta) that :func:`sample_pixel_streams` states, with b = B and k = K.

    Checks ``snc_db`` through :class:`ReceiverModel` and ``r`` through :class:`SqueezedVacuumSpec`.
    """
    sigma = np.sqrt(VACUUM_VARIANCE + electronic_noise_variance(ReceiverModel(snc_db=snc_db)))
    sx, sp = np.sqrt(lossy_squeezed_variances(r, 1.0))
    d = c * np.exp(-1j * offsets)
    # the noise covariance is sigma^2 (I - b b^T); its square root I - b K b^T is finite at lambda = 0 and 1
    b = np.stack([d.real, d.imag], axis=1) * (0.5 / sigma)
    lam, q = np.linalg.eigh(b.T @ b)
    k = (q / (1.0 + np.sqrt(np.clip(1.0 - lam, 0.0, None)))) @ q.T
    return sigma, sx, sp, d, b, k


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

    The weighted sum sum_j g_j e^{i phi_j} (.) is renormalized by sqrt(sum g^2), which ``ChannelSettings``
    keeps > 0, so a vacuum input keeps variance 1/4.  Accepts either a multimode :class:`GaussianState`
    (returns the combined single-mode state) or a sequence of :class:`MeasurementRecord` whose streams were
    generated with the phases applied as LO offsets (returns the combined record; in the sample domain phases
    act at generation time, so only the gains enter the sum).  Records of nonzero gain must be sampled with
    ``lo_phases=-settings.phases`` (mod 2 pi): an RF phase phi is an LO offset -phi.
    """
    norm = np.sqrt(np.sum(settings.gains**2))
    if isinstance(x, GaussianState):
        row = settings.complex_weights()[np.newaxis, :] / norm
        return apply_linear_network(x, row)
    records: Sequence[MeasurementRecord] = list(x)
    if len(records) != settings.n_channels:
        raise ValueError("need one record per channel")
    rates = {rec.sampling_rate for rec in records}
    lengths = {rec.samples.size for rec in records}
    seeds = {rec.seed for rec in records}
    if len(rates) != 1 or len(lengths) != 1 or len(seeds) != 1:
        raise ValueError("records must share sampling rate, length and seed")
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
        seed=seeds.pop(),
        sampling_rate=rates.pop(),
    )


def write_records_csv(records: Iterable[MeasurementRecord], fh) -> None:
    """Serialize records as ``time_s,channel,voltage`` rows, formatted ``%.9g,%d,%.9g``.

    The bytes are those of ``"%.9g,%d,%.9g\\n" % (t, channel, v)`` row by row.  A row is built as uint64
    words, a two-word slot per value and one word for the newline.  NumPy formats finite 1e-4 <= |v| < 10,
    the fixed notation of %.9g, but for a scaled 9th-digit tie or a carry to the next decade; Python formats
    those and every other value: zero, NaN, inf and every exponent form.
    Sample k is stamped k / sampling_rate, so records at one rate share their time column: every block takes its
    time slots from the one cache of :func:`_time_slots`, which a long record cycles through.
    """
    fh.write("time_s,channel,voltage\n")
    for rec in records:
        channel = (",%d," % rec.channel).encode("ascii")
        width = -(-len(channel) // 8)
        size = rec.samples.size
        rate = float(rec.sampling_rate)
        # a row is 5 + width uint64 words: the time's two-word slot, ",channel,", the voltage's slot and "\n"
        rows = np.zeros((min(_CSV_BLOCK, size), 5 + width), dtype="<u8")
        rows[:, 2:2 + width] = np.frombuffer(channel.ljust(8 * width, b"\0"), dtype="<u8")
        rows[:, -1] = ord("\n")
        for start in range(0, size, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, size)
            n = stop - start
            rows[:n, :2] = _time_slots(rate, start, stop)
            _g9_slots(rec.samples[start:stop], rows[:n, 2 + width:-1])
            fh.write(rows[:n].tobytes().translate(None, b"\0").decode("ascii"))


@lru_cache(maxsize=_TIME_SLOT_BLOCKS)
def _time_slots(rate: float, start: int, stop: int) -> np.ndarray:
    """Read-only :func:`_g9_slots` of the time stamps ``np.arange(start, stop) / rate``."""
    out = np.empty((stop - start, 2), dtype="<u8")
    _g9_slots(np.arange(start, stop) / rate, out)
    out.flags.writeable = False
    return out


def _g9_tables():
    """Per decimal exponent e in [-5, 1] (every e that floor(log10) gives in [1e-4, 10), off by one), at index e + 5.

    ``mul`` is the exact power of ten 10^(8-e) that scales to 9 integer digits.  The others build a slot:
    ``dot`` is the point after the leading digit (byte 7 of word 0), except below 1, whose ``lead`` holds the
    "0." to "0.000" prefix instead (bytes 1-5 of word 0).
    Per 4-digit group i < 10^4, ``digits`` is the ASCII of "%04d" % i: byte p is i // 10^(3-p) % 10.
    ``keep`` masks its bytes up to its last nonzero digit: byte p while i % 10^(4-p) != 0.
    """
    mul, dot, lead = [], [], []
    for e in range(-5, 2):
        mul.append(float(10 ** (8 - e)))
        dot.append(0 if e < 0 else ord(".") << 56)
        lead.append(int.from_bytes(b"\0" + b"0.000"[:1 - e] if e < 0 else b"", "little"))
    i = np.arange(10**4)
    digits = sum((i // 10 ** (3 - p) % 10 + ord("0")) << 8 * p for p in range(4))
    keep = sum((i % 10 ** (4 - p) != 0) * (0xFF << 8 * p) for p in range(4))
    return np.array(mul), *(np.array(t, dtype=np.uint64) for t in (dot, lead, digits, keep))


_G9_MUL, _G9_DOT, _G9_LEAD, _G9_DIGITS, _G9_KEEP = _g9_tables()


def _g9_slots(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``"%.9g" % x[i]`` as 16 NUL-padded ASCII bytes into the two uint64 words ``out[i]``.

    The package writes samples of order 1 and time stamps below 1 s, so NumPy formats the fixed notation of
    finite 1e-4 <= |x| < 10, where the point, if any, follows the leading digit.  There m = |x| 10^(8-e) is one
    correctly rounded product by an exact power of ten.  Rounding is monotone and integers and half-integers
    below 2^30 are doubles, so for m in [1e8, 1e9) rounding m half up gives the correctly rounded 9 digits of
    |x| unless m is itself a half-integer.  Those values, a floor(log10) that missed (m outside [1e8, 1e9)),
    an m that rounds up to 1e9 (a carry to the next decade) and every value outside that range, zero, NaN,
    infinities and every exponent form, are formatted by Python.  Returns the indices of the values Python
    formatted.

    Word 0 holds the sign, the prefix below 1, the leading digit and the point; word 1 the other 8 digits.
    Python's text is at most 16 bytes ("-1.23456789e-100"), so it too fills two words.  Digits are split in
    np.intp, words built in np.uint64: NumPy 1.24 promotes uint64 mixed with int64 to float64.
    """
    u = np.uint64
    a = np.abs(x)
    fast = a >= 1e-4
    fast &= a < 10
    np.copyto(a, 1.0, where=~fast)
    # a floor(log10) that missed puts m outside [1e8, 1e9), or on 1e8 itself, which rounds alike
    m = np.log10(a)
    k = np.floor(m, out=m).astype(np.intp)
    k += 5
    np.multiply(a, _G9_MUL[k], out=m)
    r = np.floor(m, out=a)
    frac = m - r
    ok = frac != 0.5
    ok &= m >= 1e8
    ok &= m < 999999999.5
    ok &= fast
    r += frac > 0.5
    # the leading digit d0, then the 8 digits after it as two 4-digit groups, each looked up as ASCII
    d = r.astype(np.intp)
    d0 = d // 10**8
    d -= d0 * 10**8
    hi = d // 10**4
    lo = d - hi * 10**4
    w = _G9_DIGITS[hi] | _G9_DIGITS[lo] << u(32)
    # keep every digit up to the last nonzero one; the rest become NUL
    w &= np.where(lo != 0, _G9_KEEP[lo] << u(32) | u(0xFFFFFFFF), _G9_KEEP[hi])
    out[:, 1] = w
    out[:, 0] = (d0 + ord("0")).astype(u) << u(48) | _G9_LEAD[k] | _G9_DOT[k] * (d != 0) | np.signbit(x) * u(ord("-"))
    slow = np.flatnonzero(~ok)
    for i in slow:
        out[i] = np.frombuffer(("%.9g" % x[i]).encode("ascii").ljust(16, b"\0"), dtype="<u8")
    return slow


def write_records_binary(records: Iterable[MeasurementRecord], fh) -> None:
    """Dump sample streams as little-endian float64, channel-major order."""
    for rec in records:
        fh.write(np.ascontiguousarray(rec.samples, dtype="<f8"))
