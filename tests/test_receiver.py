import hashlib
import io
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qpasim.aperture import (ApertureGeometry, BeamSpec, ChannelSettings, CouplingVector, coupling_vector,
                             deembed_insertion_loss, matched_settings)
from qpasim.gaussian import apply_loss, lossy_squeezed_variances, vacuum
from qpasim import gaussian, receiver
from qpasim.chain import predict, source_state
from qpasim.receiver import (
    MeasurementRecord,
    PhaseRamp,
    ReceiverModel,
    channel_effective_efficiency,
    channel_rng,
    combine_rf,
    electronic_noise_variance,
    sample_pixel_streams,
    write_records_binary,
    write_records_csv,
)

FS_HZ = 20e6

# Sampled-versus-oracle tolerance.  The mean square of m zero-mean Gaussian draws of variance V has standard error
# V * sqrt(2/m).  A 4 % error in V must fail at Z = 4 standard errors, so m >= 2 (Z / REL_TOL)^2 draws.
Z = 4.0
REL_TOL = 0.04
M_DRAWS = int(np.ceil(2 * (Z / REL_TOL) ** 2))


def ramp_over_half_turn(n_samples):
    """Ramp whose n_samples at FS_HZ cover theta in [0, pi)."""
    return PhaseRamp(frequency_hz=FS_HZ / (2 * n_samples), duration_s=n_samples / FS_HZ, sampling_rate=FS_HZ)


def held_ramp(n_samples):
    """Ramp at 0 Hz: every sample sees LO phase 0 plus its channel's offset."""
    return PhaseRamp(frequency_hz=0.0, duration_s=n_samples / FS_HZ, sampling_rate=FS_HZ)


def records(*streams, rate=FS_HZ, lo_phases=None):
    lo_phases = np.zeros(len(streams)) if lo_phases is None else lo_phases
    return [MeasurementRecord(channel=j, samples=s, seed=7, sampling_rate=rate, lo_phase=lo)
            for j, (s, lo) in enumerate(zip(streams, lo_phases))]


def law_map(law, theta):
    """L(theta), shape theta.shape + (n, n + 2), of the mix: channel j is sigma eps_j + Re(d_j) u + Im(d_j) v, where
    u = cos sx x + sin sp p and v = sin sx x - cos sp p, each less its row of k (b^T eps) / 2."""
    sigma, sx, sp, d, b, k = law
    dd = np.stack([d.real, d.imag], axis=1)
    cos, sin = np.cos(theta)[..., np.newaxis], np.sin(theta)[..., np.newaxis]
    x = sx * (dd[:, 0] * cos + dd[:, 1] * sin)
    p = sp * (dd[:, 0] * sin - dd[:, 1] * cos)
    noise = np.broadcast_to(sigma * np.eye(d.size) - 0.5 * dd @ k @ b.T, x.shape + (d.size,))
    return np.concatenate([x[..., np.newaxis], p[..., np.newaxis], noise], axis=-1)


@st.composite
def law_cases(draw):
    """n = 1-33 couplings of total power <= 1, any LO offsets and phase, r <= 2 and one of three noise levels."""
    n = draw(st.integers(min_value=1, max_value=33))
    # c and the offsets come from one array of draws: with two arrays the property took 0.6 s, not 0.4 s
    parts = draw(hnp.arrays(np.float64, (3, n), elements=st.floats(min_value=-1.0, max_value=1.0)))
    c = parts[0] + 1j * parts[1]
    c *= draw(st.floats(min_value=0.0, max_value=1.0)) / (np.linalg.norm(c) or 1.0)
    offsets, theta = 10 * parts[2], draw(st.floats(min_value=-10.0, max_value=10.0))
    return c, offsets, theta, draw(st.floats(min_value=0.0, max_value=2.0)), draw(st.sampled_from([np.inf, 30.3, 5.0]))


class TestArrayAgainstOracle:
    """The sampled channels carry the oracle's covariance, vacuum correlations between channels included: exactly,
    given iid normals, as L L^T is the oracle's covariance and the records are L applied to the drawn normals."""

    @settings(deadline=None)
    @given(law_cases())
    # lossless channels on the unit circle without electronic noise, where clip(1 - lambda) reaches 0, and c = 0
    @example(([0.6 + 0.8j], [0.0], 0.0, 1.0, np.inf))
    @example(([1.0], [np.pi / 2], 0.0, 1.0, np.inf))
    @example(([1j], [0.3], 0.0, 1.0, np.inf))
    @example((np.zeros(3), [0.0, 1.0, 2.0], 0.4, 1.0, 30.3))
    @example(([np.sqrt(0.6)], [0.0], np.pi / 4, 0.8, 20.0))  # one lossy channel with electronic noise
    def test_law_carries_the_oracle_covariance(self, case):
        c, offsets, theta, r, snc_db = case
        c, offsets = CouplingVector(c).c, np.asarray(offsets, dtype=float)
        law_at_theta = law_map(receiver._stream_law(c, offsets, r, snc_db), theta)
        assert np.all(np.isfinite(law_at_theta))
        # channel j reads X(offset_j) = cos x_j + sin p_j of the source rotated by the LO phase, plus noise e
        j = np.arange(c.size)
        h = np.zeros((c.size, 2 * c.size))
        h[j, 2 * j], h[j, 2 * j + 1] = np.cos(offsets), np.sin(offsets)
        oracle = h @ source_state(c * np.exp(-1j * theta), r).cov @ h.T
        oracle += electronic_noise_variance(ReceiverModel(snc_db=snc_db)) * np.eye(c.size)
        np.testing.assert_allclose(law_at_theta @ law_at_theta.T, oracle, rtol=0, atol=1e-14 * np.abs(oracle).max())

    # 10 001 samples: one block, or blocks of 4099, 4099 and 1803 split over 2 workers
    @pytest.mark.parametrize("chunk, workers", [(1 << 16, 1), (4099, 2)], ids=["one_block", "short_last_block"])
    @pytest.mark.parametrize("c, offsets, r, snc_db", [
        ([0.3, 0.2j, -0.25, 0.1 - 0.3j], [0.1, -0.7, 2.0, 0.0], 0.7, 25.0),
        # c = 0: channel j is vacuum only, the one stream it draws from channel_rng(seed, j)
        (np.zeros(3), [0.0, 1.0, 2.0], 1.0, np.inf),
    ], ids=["coupled", "uncoupled"])
    def test_records_are_the_law_on_the_drawn_normals(self, monkeypatch, c, offsets, r, snc_db, chunk, workers):
        monkeypatch.setattr(receiver, "_CHUNK", chunk)
        monkeypatch.setattr(receiver, "_WORKERS", workers)
        n, seed, ramp = 10001, 5, ramp_over_half_turn(10001)
        recs = sample_pixel_streams(c, r, ramp, n, seed, lo_phases=offsets, snc_db=snc_db)
        got = np.array([rec.samples for rec in recs])
        # x and p are the first and second n normals of the source's stream, eps_j the stream of channel j
        source = channel_rng(seed, len(c)).standard_normal(2 * n)
        normals = np.array([source[:n], source[n:]] + [channel_rng(seed, j).standard_normal(n) for j in range(len(c))])
        law = receiver._stream_law(CouplingVector(c).c, np.asarray(offsets, dtype=float), r, snc_db)
        expected = np.einsum("tjk,kt->jt", law_map(law, ramp.phase(ramp.times(n))), normals)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(got).max()

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_combined_record_matches_combined_state(self, r):
        # 32 channels at c_j = 0.15: independent per-channel vacuum would give 0.423 (r = 0) and 0.269
        # (r = 1) where the oracle gives 0.25 and 0.0944, far beyond the REL_TOL the record size resolves
        c = np.full(32, 0.15)
        settings = ChannelSettings(gains=np.ones(32), phases=np.zeros(32))
        streams = sample_pixel_streams(c, r, held_ramp(M_DRAWS), M_DRAWS, 13, lo_phases=-settings.phases)
        combined = combine_rf(streams, settings).samples
        expected = combine_rf(source_state(c, r), settings).cov[0, 0]
        assert abs(np.mean(combined**2) - expected) < Z * expected * np.sqrt(2.0 / M_DRAWS)


@st.composite
def chain_scenarios(draw):
    """A geometry, a beam whose offset reaches past the point where it misses the aperture, r and a loss."""
    geometry = ApertureGeometry(mode_profile=draw(st.sampled_from(["comb", "tophat"])),
                                n_antennas=draw(st.integers(min_value=1, max_value=32)))
    diameter = draw(st.floats(min_value=80.0, max_value=480.0))
    # coupling_vector calls a beam a miss once its centre lies four waists (two diameters) beyond the edge
    reach = geometry.aperture_halfwidth_um + 2 * diameter
    beam = BeamSpec(diameter_um=diameter, center_offset_um=draw(st.floats(min_value=-1.2, max_value=1.2)) * reach,
                    incidence_angle_deg=draw(st.floats(min_value=-1.5, max_value=1.5)))
    return geometry, beam, draw(st.floats(min_value=0.0, max_value=1.5)), draw(st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=100, deadline=None)
@given(chain_scenarios())
@example((ApertureGeometry(), BeamSpec(diameter_um=80.0, center_offset_um=1000.0), 1.5, 0.5445))
def test_chain_oracle_matches_the_closed_form(scenario):
    # one source mode through the rank-1 coupling column, the same loss kappa on every mode, then a unit-norm
    # combiner w: the combined mode is the source at efficiency kappa |w . c|^2
    geometry, beam, r, kappa = scenario
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a beam that misses the aperture warns and couples nothing
        cv = coupling_vector(geometry, beam)
    settings = matched_settings(cv, geometry)
    # without electronic noise, predict adds exactly 0 to the combined mode's principal variances
    got = predict(cv.c, kappa, r, settings, ReceiverModel(snc_db=np.inf))
    w = settings.complex_weights() / np.linalg.norm(settings.gains)
    np.testing.assert_allclose(got, lossy_squeezed_variances(r, kappa * abs(w @ cv.c) ** 2), rtol=1e-12, atol=0)


def test_predict_propagates_the_array_in_one_map(monkeypatch):
    # kappa rides on the coupling column, and the column maps the one-mode source to the 32 antennas: one 32-mode
    # state, where a source padded to 32 modes took a second, and 32 apply_loss calls 32 more
    n_modes, factorized = [], []
    admit, cholesky = gaussian._admit, np.linalg.cholesky

    def counted(*args):
        state = admit(*args)
        n_modes.append(state.n_modes)
        return state

    def counted_cholesky(a):
        factorized.append(a.shape)
        return cholesky(a)

    cv = coupling_vector(ApertureGeometry(), BeamSpec())
    settings = matched_settings(cv, ApertureGeometry())
    # every state, constructed or the output of a map, passes the one check function
    monkeypatch.setattr(gaussian, "_admit", counted)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    predict(cv.c, 0.5, 1.0, settings, ReceiverModel())
    # the source, the column's output and the combined mode
    assert n_modes == [1, 32, 1]
    # only the constructed source is factorized: both map outputs clear their tol on the floor they inherit
    assert factorized == [(2, 2)]


class TestSamplePixelStreams:
    C = np.array([0.3, 0.2j, -0.25])
    RAMP = ramp_over_half_turn(4096)

    def test_seeded_streams_reproducible(self):
        a = sample_pixel_streams(self.C, 0.7, self.RAMP, 4096, 5, lo_phases=[0.1, 0.2, 0.3], snc_db=25.0)
        b = sample_pixel_streams(self.C, 0.7, self.RAMP, 4096, 5, lo_phases=[0.1, 0.2, 0.3], snc_db=25.0)
        c = sample_pixel_streams(self.C, 0.7, self.RAMP, 4096, 6, lo_phases=[0.1, 0.2, 0.3], snc_db=25.0)
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x.samples, y.samples)
            assert not np.array_equal(x.samples, z.samples)

    @pytest.mark.parametrize("lo_phases", [np.zeros(2), np.zeros(4), np.zeros((3, 1))],
                             ids=["short", "long", "2-D"])
    def test_lo_phases_shape_must_match_couplings(self, lo_phases):
        with pytest.raises(ValueError, match="equal length"):
            sample_pixel_streams(self.C, 0.7, self.RAMP, 64, 5, lo_phases=lo_phases)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            sample_pixel_streams(self.C, 0.7, self.RAMP, 0, 5)

    def test_superunity_coupling_rejected(self):
        # the sampler applies CouplingVector's rule, so both refuse the same couplings with the same message
        for couplings in ([0.8, 0.8], np.full(4, 0.6 + 0j), [0.1, np.nan], [1.0, 1e-4]):
            for make in (CouplingVector, lambda c: sample_pixel_streams(c, 0.7, self.RAMP, 64, 5)):
                with pytest.raises(ValueError, match="^coupled power must be finite and must not exceed unity$"):
                    make(couplings)


class TestBlockSampler:
    """The records do not depend on the sampler's time block or thread count."""

    C = np.array([0.3, 0.2j, -0.25, 0.1 - 0.3j])
    LO = np.array([0.1, -0.7, 2.0, 0.0])

    def streams(self, monkeypatch, n, chunk, workers):
        monkeypatch.setattr(receiver, "_CHUNK", chunk)
        monkeypatch.setattr(receiver, "_WORKERS", workers)
        recs = sample_pixel_streams(self.C, 0.7, ramp_over_half_turn(n), n, 5, lo_phases=self.LO, snc_db=25.0)
        return np.array([rec.samples for rec in recs])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk, n", [(1, 37), (4099, 70001), (2**16, 70001), (70001, 70001)])
    def test_records_match_one_block_on_one_thread(self, monkeypatch, chunk, n, workers):
        assert chunk in (1, n) or n % chunk  # a short last block
        one_block = self.streams(monkeypatch, n, n, 1)
        assert np.array_equal(self.streams(monkeypatch, n, chunk, workers), one_block)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # the workers share the block's scratch by disjoint slices; a lost or misplaced write changes the bits
        one_block = self.streams(monkeypatch, 9001, 9001, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = self.streams(monkeypatch, 9001, 1021, 5)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(many, one_block)

    def test_one_block_keeps_the_rng_contract(self, monkeypatch):
        # channel 0 as the unchunked sampler drew it from channel_rng(5, 0) and the source's channel_rng(5, 4)
        ch0 = self.streams(monkeypatch, 70001, 70001, 1)[0]
        assert hashlib.sha256(ch0.astype("<f8").tobytes()).hexdigest() == (
            "598100c5cef123940a47035d91fa7becba5565908800a532cf1c2ac6cd587ac8")

    def test_one_block_call_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a call that fits in one block started a thread")

        monkeypatch.setattr(receiver.threading, "Thread", no_thread)
        self.streams(monkeypatch, 4096, 4096, 2)

    def test_worker_errors_reach_the_caller(self):
        ran = []

        def fail():
            raise ValueError("worker failed")

        with pytest.raises(ValueError, match="worker failed"):
            receiver._in_parallel([lambda: ran.append(0), fail])
        assert ran == [0]


_gain = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
_phase = st.floats(min_value=-10.0, max_value=10.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.lists(_gain, min_size=n, max_size=n).filter(any),
                        st.lists(_phase, min_size=n, max_size=n))))
def test_combine_rf_keeps_vacuum_at_a_quarter(gains_phases):
    gains, phases = gains_phases
    out = combine_rf(vacuum(len(gains)), ChannelSettings(gains=gains, phases=phases))
    np.testing.assert_allclose(out.cov, 0.25 * np.eye(2), rtol=0, atol=1e-12)


_db = st.floats(min_value=0.0, max_value=1e6)


@settings(max_examples=200, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.builds(ReceiverModel, snc_db=st.floats(min_value=0.0), chip_loss_db=_db, collimator_loss_db=_db),
)
# entries at CouplingVector's bound, |c|^2 <= 1 + 1e-9, which the sampler accepts: |c_j| <= 1 rejected them
@example(CouplingVector([1 + 4e-10]).c[0], ReceiverModel(chip_loss_db=0.0, collimator_loss_db=0.0))
@example(CouplingVector([(1 + 4e-10) * np.exp(0.3j)]).c[0], ReceiverModel(chip_loss_db=0.0, collimator_loss_db=0.0))
def test_channel_effective_efficiency_within_unit_interval(c_j, model):
    eta = channel_effective_efficiency(c_j, model)
    assert 0.0 <= eta <= 1.0
    apply_loss(vacuum(1), 0, eta)
    lossy_squeezed_variances(1.0, eta)


@pytest.mark.parametrize("model, expected", [
    (ReceiverModel(), 10 ** (-2.64 / 10)),  # on-chip loss after the antenna, 5.62 - 3.78 dB, plus the collimator's 0.8
], ids=["on-chip-limited"])
def test_channel_effective_efficiency_pinned(model, expected):
    assert expected == pytest.approx(0.5445027, abs=1e-7)
    assert channel_effective_efficiency(1.0, model) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("insertion_loss_db", [0.0, 3.78, 6.0])
def test_loss_budget_counts_each_loss_once(insertion_loss_db):
    # the geometry owns the antenna's insertion loss and the receiver model what follows it
    geometry = ApertureGeometry(insertion_loss_db=insertion_loss_db)
    c = coupling_vector(geometry, BeamSpec(diameter_um=300.0, center_offset_um=40.0, incidence_angle_deg=0.5))
    model = ReceiverModel()
    c_prime = deembed_insertion_loss(c, geometry)
    on = c.c != 0
    assert np.count_nonzero(on) == geometry.n_antennas
    budget_db = np.array([10 * np.log10(channel_effective_efficiency(c_j, model)) for c_j in c.c[on]])
    expected_db = (10 * np.log10(np.abs(c_prime[on]) ** 2) - insertion_loss_db - model.chip_loss_db
                   - model.collimator_loss_db)
    np.testing.assert_allclose(budget_db, expected_db, rtol=0, atol=1e-12)


class TestCombineRecords:
    def test_gains_weight_and_normalize(self):
        # the phases act as LO offsets when sampling, so only the gains enter the sum
        recs = records(np.ones(4), 2 * np.ones(4), lo_phases=[0.0, -9.0])
        out = combine_rf(recs, ChannelSettings(gains=[3.0, 4.0], phases=[0.0, 9.0]))
        np.testing.assert_allclose(out.samples, (3 + 8) / 5 * np.ones(4))
        assert out.channel == -1 and out.sampling_rate == FS_HZ

    def test_wrong_record_count_rejected(self):
        with pytest.raises(ValueError, match="one record per channel"):
            combine_rf(records(np.ones(4), np.ones(4)), ChannelSettings(gains=np.ones(3), phases=np.zeros(3)))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            combine_rf(records(np.ones(4), np.ones(5)), ChannelSettings(gains=np.ones(2), phases=np.zeros(2)))

    def test_records_carry_their_lo_offsets(self):
        settings = ChannelSettings(gains=[1.0, 0.5, 2.0], phases=[0.4, -2.0, 7.0])
        streams = sample_pixel_streams([0.3, 0.2j, -0.25], 0.7, held_ramp(64), 64, 5, lo_phases=-settings.phases)
        assert [rec.lo_phase for rec in streams] == list(-settings.phases)
        # the check changes nothing in the sum, which stays the plain gain-weighted one
        expected = sum(g * rec.samples for g, rec in zip(settings.gains, streams)) / np.sqrt(np.sum(settings.gains**2))
        assert np.array_equal(combine_rf(streams, settings).samples, expected)

    @pytest.mark.parametrize("gains, lo_phases, ok", [
        ([1.0, 1.0], [0.0, 0.0], False),  # sampled without the RF phases: the sum would silently lack them
        ([1.0, 1.0], [0.0, 2 * np.pi - 1.5], True),  # equal modulo 2 pi
        ([1.0, 1.0], [0.0, -1.5 + 1e-9], False),
        ([0.0, 1.0], [3.0, -1.5], True),  # a channel of zero gain does not enter the sum
    ], ids=["unphased", "wrapped", "off", "zero-gain"])
    def test_lo_offsets_must_match_rf_phases(self, gains, lo_phases, ok):
        recs = records(np.ones(4), np.ones(4), lo_phases=lo_phases)
        settings = ChannelSettings(gains=gains, phases=[0.0, 1.5])
        if ok:
            combine_rf(recs, settings)
        else:
            with pytest.raises(ValueError, match="LO offsets"):
                combine_rf(recs, settings)

    def test_all_zero_gains_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            combine_rf(records(np.ones(4), np.ones(4)), ChannelSettings(gains=np.zeros(2), phases=np.zeros(2)))

    def test_unequal_seeds_rejected(self):
        # otherwise the combined record would claim the first record's seed for samples of several seeds
        recs = [MeasurementRecord(channel=j, samples=np.ones(4), seed=seed, sampling_rate=FS_HZ)
                for j, seed in enumerate([1, 2])]
        with pytest.raises(ValueError, match="seed"):
            combine_rf(recs, ChannelSettings(gains=np.ones(2), phases=np.zeros(2)))


class TestWriters:
    RECS = records(np.array([0.125, -1.5e-3, 2.0]), np.array([7.0, -3.25, 1e-9]), rate=4.0)

    def test_csv_round_trip(self):
        fh = io.StringIO()
        write_records_csv(self.RECS, fh)
        fh.seek(0)
        assert fh.readline() == "time_s,channel,voltage\n"
        table = np.loadtxt(fh, delimiter=",")
        np.testing.assert_allclose(table[:, 0], np.tile(np.arange(3) / 4.0, 2))
        np.testing.assert_array_equal(table[:, 1], [0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(table[:, 2], np.concatenate([r.samples for r in self.RECS]), rtol=1e-8)

    def test_binary_round_trip(self):
        recs = self.RECS + records(np.arange(8.0)[::2], rate=4.0)
        assert not recs[-1].samples.flags.c_contiguous
        fh = io.BytesIO()
        write_records_binary(recs, fh)
        back = np.frombuffer(fh.getvalue(), dtype="<f8")
        np.testing.assert_array_equal(back, np.concatenate([r.samples for r in recs]))


def per_row_csv(records):
    """The writer's bytes as formatted one row at a time."""
    rows = ["time_s,channel,voltage\n"]
    for rec in records:
        for t, v in zip(np.arange(rec.samples.size) / rec.sampling_rate, rec.samples):
            rows.append("%.9g,%d,%.9g\n" % (t, rec.channel, v))
    return "".join(rows)


# a row short of, at and a row past half a block (a record ending inside its only block),
# one block and two whole blocks
@pytest.mark.parametrize("size", sorted({0, 1, *(rows + step for rows in (receiver._CSV_BLOCK // 2, receiver._CSV_BLOCK,
                                                                          2 * receiver._CSV_BLOCK)
                                                 for step in (-1, 0, 1))}))
def test_csv_bytes_match_per_row_format(size):
    special = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 0.125, 1 / 3]
    values = np.concatenate([special, np.random.default_rng(size).standard_normal(size)])[:size]
    below = np.nextafter(FS_HZ, 0)
    recs = [MeasurementRecord(channel=-1, samples=values, seed=7, sampling_rate=FS_HZ),
            MeasurementRecord(channel=np.int64(5), samples=values[::-1], seed=7, sampling_rate=3.0),
            MeasurementRecord(channel=2, samples=values, seed=7, sampling_rate=below)]
    fh = io.StringIO()
    # each record twice, so the second copy's times come from the time-slot cache
    write_records_csv(recs + recs, fh)
    assert fh.getvalue() == per_row_csv(recs + recs)
    if size:
        n = min(size, receiver._CSV_BLOCK)
        slots = receiver._time_slots(FS_HZ, 0, n)
        assert not slots.flags.writeable
        # %.9g prints the same times at both rates, so only the cache's keys can tell them apart
        assert receiver._time_slots(float(below), 0, n) is not slots


def test_csv_bytes_match_per_row_format_after_a_record_cycles_the_time_slot_cache():
    # the long record's blocks evict the first ones, which the short record at its rate then formats again
    long = receiver._TIME_SLOT_BLOCKS * receiver._CSV_BLOCK + receiver._CSV_BLOCK // 2
    values = np.random.default_rng(8).standard_normal(long)
    recs = [MeasurementRecord(channel=0, samples=values, seed=7, sampling_rate=7e6),
            MeasurementRecord(channel=1, samples=values[:receiver._CSV_BLOCK + 3], seed=7, sampling_rate=7e6)]
    fh = io.StringIO()
    write_records_csv(recs, fh)
    assert fh.getvalue() == per_row_csv(recs)


def test_a_second_record_at_the_same_rate_formats_no_time_stamp(monkeypatch):
    # the formatter hands t = 0 and the stamps below 1e-4 to Python; only the first record's times may pay for it
    handed, g9_slots = [], receiver._g9_slots

    def counting(x, out):
        slow = g9_slots(x, out)
        handed.append(slow.size)
        return slow

    monkeypatch.setattr(receiver, "_g9_slots", counting)
    receiver._time_slots.cache_clear()
    # voltages that NumPy formats, so every value handed to Python is a time stamp
    values = np.random.default_rng(9).uniform(0.1, 1.0, 2 * receiver._CSV_BLOCK + 5)
    recs = [MeasurementRecord(channel=j, samples=values, seed=7, sampling_rate=FS_HZ) for j in range(2)]
    for rec, stamps in zip(recs, (2000, 0)):
        handed.clear()
        fh = io.StringIO()
        write_records_csv([rec], fh)
        assert fh.getvalue() == per_row_csv([rec])
        assert sum(handed) == stamps


def csv_of(samples, channel=-1, rate=FS_HZ):
    """The writer's CSV and the per-row CSV of one record, cut to their first differing line."""
    rec = MeasurementRecord(channel=channel, samples=samples, seed=7, sampling_rate=rate)
    fh = io.StringIO()
    write_records_csv([rec], fh)
    fast, reference = fh.getvalue().split("\n"), per_row_csv([rec]).split("\n")
    first = next((i for i, (a, b) in enumerate(zip(fast, reference)) if a != b), min(len(fast), len(reference)))
    return fast[first:first + 1] + [len(fast)], reference[first:first + 1] + [len(reference)]


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(min_value=0, max_value=40),
               elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)),
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(min_value=1e-3, max_value=1e12),
)
def test_csv_bytes_match_per_row_format_for_any_float(samples, channel, rate):
    fast, reference = csv_of(samples, channel, rate)
    assert fast == reference


def neighbours(values, ulps):
    """``values`` and the floats up to ``ulps`` steps away on either side."""
    out = [values]
    for toward in (0.0, np.inf):
        step = values
        for _ in range(ulps):
            step = np.nextafter(step, toward)
            out.append(step)
    return np.concatenate(out)


def adversarial_values():
    """Every decade, 9-digit ties and the %g notation switches, each with its float neighbours, and every
    4-digit group in either half of the 8 digits after the leading one.

    Scaled to 9 integer digits, a tie's neighbours lie within an ulp of the half-integer, so the rounded
    product can land exactly on it while the exact product does not.  The groups come as 9-digit integers
    1 hi lo: every hi beside every lo = 9999 - hi and beside lo = 0, in fixed notation at and above 1, below
    1, and in exponent notation.
    """
    decades = 10.0 ** np.arange(-320, 309)
    digits = np.random.default_rng(5).integers(10**8, 10**9, 24)
    ties = np.concatenate([(digits + 0.5) * 10.0 ** j for j in range(-24, 24)])
    switches = np.array([1e-4, 1e9, 9.99999999e-5, 9.999999995e-5, 999999999.0, 999999999.5, 999999999.6,
                         1e-13, 1e22, 9.9999999949e21, 0.5, 1.0, 5e-324, 2.2250738585072014e-308, 1.8e308,
                         9.99999999, 9.999999995, 9.9999999949, 10.0])
    hi = np.arange(10**4)
    groups = np.concatenate([10**8 + 10**4 * hi + (9999 - hi), 10**8 + 10**4 * hi]).astype(float)
    scaled = [groups / 10.0 ** (8 - e) if e < 8 else groups * 10.0 ** (e - 8) for e in (0, 4, -3, 12, -7)]
    values = np.concatenate([neighbours(decades, 1), neighbours(ties, 3), neighbours(switches, 1), *scaled])
    return np.concatenate([values, -values, [0.0, -0.0, np.nan, np.inf, -np.inf]])


@pytest.mark.parametrize("channel", [-1, 0, 17, 10**12])
def test_csv_bytes_match_per_row_format_on_adversarial_values(channel):
    fast, reference = csv_of(adversarial_values(), channel)
    assert fast == reference


@pytest.mark.parametrize("block", [1, 7, 4096, None])
def test_csv_bytes_do_not_depend_on_block_size(monkeypatch, block):
    # values Python formats sit on both sides of the block boundaries at 7 and 4096 rows
    samples = np.random.default_rng(3).standard_normal(4100)
    samples[[6, 7, 13, 14, 4095, 4096, 4099]] = [np.nan, 1e-300, 123456789.5, -np.inf, 1e300, np.nan, 0.5e-13]
    monkeypatch.setattr(receiver, "_CSV_BLOCK", block or samples.size)
    fast, reference = csv_of(samples, channel=3, rate=1e5)
    assert fast == reference


def g9(values):
    """The private formatter's text for ``values`` and how many of them it handed to Python."""
    out = np.zeros((values.size, 2), dtype="<u8")
    n_python = receiver._g9_slots(values, out).size
    return out.tobytes().translate(None, b"\0").decode("ascii"), n_python


def outside_fixed_range(values):
    """How many of ``values`` lie outside the formatter's NumPy range, finite 1e-4 <= |x| < 10."""
    return np.count_nonzero(~((np.abs(values) >= 1e-4) & (np.abs(values) < 10)))


def test_csv_formats_ordinary_data_in_numpy():
    # a formatter that handed every value to Python would pass the exactness tests; these inputs hold no tie,
    # carry or log10 miss, so exactly the values outside the NumPy range go to Python (11 of the 10^5)
    values = np.random.default_rng(11).standard_normal(10**5)
    text, n_python = g9(values)
    assert n_python == outside_fixed_range(values) == 11
    assert text == "".join("%.9g" % v for v in values)
    # every time stamp of a 2^20-sample record at 20 MS/s but t = 0: the 1 999 below 1e-4 go to Python
    stamps = np.arange(1, 2**20) / 20e6
    text, n_python = g9(stamps)
    assert n_python == outside_fixed_range(stamps) == 1999
    assert text == "".join("%.9g" % t for t in stamps)
    # |x| >= 10 is outside the fast range
    rng = np.random.default_rng(12)
    large = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(1, 22, 1000)
    text, n_python = g9(large)
    assert n_python == large.size
    assert text == "".join("%.9g" % v for v in large)


@pytest.mark.parametrize("miss", [-1, 1])
def test_csv_formatter_hands_a_missed_exponent_to_python(monkeypatch, miss):
    # NumPy's log10 misses floor(log10) only beside a power of ten; any other miss must not print wrong digits
    values = np.random.default_rng(4).standard_normal(1000)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
    text, n_python = g9(values)
    assert n_python == values.size
    assert text == "".join("%.9g" % v for v in values)
