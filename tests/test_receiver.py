import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpasim.aperture import ChannelSettings
from qpasim.gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    SqueezedVacuumSpec,
    apply_linear_network,
    apply_loss,
    quadrature_variance,
    squeezed_vacuum,
    vacuum,
)
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

# Sampled-versus-oracle tolerance.  The windowed mean square of m zero-mean
# Gaussian draws of variance V has standard error V * sqrt(2/m).  A 4 % error
# in V must fail at Z = 4 standard errors, so m >= 2 (Z / REL_TOL)^2 draws per
# window, and a +-HALF_WINDOW window holds 2 HALF_WINDOW / pi of a ramp over
# [0, pi).  Averaging the variance law over the window shifts it by about
# (2 HALF_WINDOW)^2 / 6 of its modulation depth, far below REL_TOL.
Z = 4.0
REL_TOL = 0.04
HALF_WINDOW = 0.02
M_WINDOW = int(np.ceil(2 * (Z / REL_TOL) ** 2))
N_ORACLE = int(np.ceil(M_WINDOW * np.pi / (2 * HALF_WINDOW)))


def ramp_over_half_turn(n_samples):
    """Ramp whose n_samples at FS_HZ cover theta in [0, pi)."""
    return PhaseRamp(frequency_hz=FS_HZ / (2 * n_samples), duration_s=n_samples / FS_HZ, sampling_rate=FS_HZ)


def held_ramp(n_samples):
    """Ramp at 0 Hz: every sample sees LO phase 0 plus its channel's offset."""
    return PhaseRamp(frequency_hz=0.0, duration_s=n_samples / FS_HZ, sampling_rate=FS_HZ)


def source_on_array(r, c):
    """The oracle: squeezed source on mode 0 plus vacuum, through the network whose first column is c."""
    n = len(c)
    cov = VACUUM_VARIANCE * np.eye(2 * n)
    cov[:2, :2] = squeezed_vacuum(SqueezedVacuumSpec(r=r)).cov
    t = np.zeros((n, n), dtype=complex)
    t[:, 0] = c
    return apply_linear_network(GaussianState(mean=np.zeros(2 * n), cov=cov), t)


def records(*streams, rate=FS_HZ, lo_phases=None):
    lo_phases = np.zeros(len(streams)) if lo_phases is None else lo_phases
    return [MeasurementRecord(channel=j, samples=s, seed=7, sampling_rate=rate, lo_phase=lo)
            for j, (s, lo) in enumerate(zip(streams, lo_phases))]


class TestSingleChannelAgainstOracle:
    ETA, R, SNC_DB = 0.6, 0.8, 20.0

    @pytest.fixture(scope="class")
    def stream(self):
        ramp = ramp_over_half_turn(N_ORACLE)
        (rec,) = sample_pixel_streams([np.sqrt(self.ETA)], self.R, ramp, N_ORACLE, 11, snc_db=self.SNC_DB)
        return ramp.phase(ramp.times(N_ORACLE)), rec.samples

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2])
    def test_windowed_variance_matches_propagated_state(self, stream, theta):
        phases, samples = stream
        window = np.abs((phases - theta + np.pi / 2) % np.pi - np.pi / 2) < HALF_WINDOW
        assert window.sum() >= M_WINDOW
        state = apply_loss(squeezed_vacuum(SqueezedVacuumSpec(r=self.R)), 0, self.ETA)
        expected = quadrature_variance(state, np.array([1.0]), theta)
        expected += electronic_noise_variance(ReceiverModel(snc_db=self.SNC_DB))
        se = expected * np.sqrt(2.0 / window.sum())
        assert abs(np.mean(samples[window] ** 2) - expected) < Z * se


class TestArrayAgainstOracle:
    """The sampled channels carry the oracle's covariance, vacuum correlations between channels included."""

    DELTA = 0.01  # the smallest covariance error, in quadrature-variance units, the element test must catch

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_combined_record_matches_combined_state(self, r):
        # 32 channels at c_j = 0.15: independent per-channel vacuum would give 0.423 (r = 0) and 0.269
        # (r = 1) where the oracle gives 0.25 and 0.0944, far beyond the REL_TOL the record size resolves
        c = np.full(32, 0.15)
        settings = ChannelSettings(gains=np.ones(32), phases=np.zeros(32))
        streams = sample_pixel_streams(c, r, held_ramp(M_WINDOW), M_WINDOW, 13, lo_phases=-settings.phases)
        combined = combine_rf(streams, settings).samples
        expected = combine_rf(source_on_array(r, c), settings).cov[0, 0]
        assert abs(np.mean(combined**2) - expected) < Z * expected * np.sqrt(2.0 / M_WINDOW)

    def test_channel_covariance_matches_propagated_state(self):
        c = np.array([0.5, 0.4j, -0.35 + 0.3j, 0.45])
        offsets = np.array([0.3, -1.1, 2.0, 0.0])
        r, snc_db = 0.8, 10.0
        # channel j reads X(offset_j) = cos x_j + sin p_j of the propagated state, plus electronic noise e
        j = np.arange(c.size)
        h = np.zeros((c.size, 2 * c.size))
        h[j, 2 * j], h[j, 2 * j + 1] = np.cos(offsets), np.sin(offsets)
        oracle = h @ source_on_array(r, c).cov @ h.T
        oracle += electronic_noise_variance(ReceiverModel(snc_db=snc_db)) * np.eye(c.size)
        # mean(x_j x_k) over N zero-mean Gaussian samples has standard error sqrt((C_jj C_kk + C_jk^2) / N);
        # an error of DELTA in any element must sit 2 Z standard errors out
        spread = np.outer(np.diag(oracle), np.diag(oracle)) + oracle**2
        n = int(np.ceil((2 * Z / self.DELTA) ** 2 * spread.max()))
        streams = sample_pixel_streams(c, r, held_ramp(n), n, 17, lo_phases=offsets, snc_db=snc_db)
        x = np.array([rec.samples for rec in streams])
        assert np.all(np.abs(x @ x.T / n - oracle) < Z * np.sqrt(spread / n))

    @pytest.mark.parametrize("c, theta", [([0.6 + 0.8j], 0.0), ([1.0], np.pi / 2), ([1j], 0.3)])
    def test_lossless_channel_streams_the_source(self, c, theta):
        (rec,) = sample_pixel_streams(c, 1.0, held_ramp(M_WINDOW), M_WINDOW, 19, lo_phases=[theta])
        expected = quadrature_variance(squeezed_vacuum(SqueezedVacuumSpec(r=1.0)), np.asarray(c), theta)
        assert np.all(np.isfinite(rec.samples))
        assert abs(np.mean(rec.samples**2) - expected) < Z * expected * np.sqrt(2.0 / M_WINDOW)

    def test_uncoupled_channels_stream_their_own_vacuum(self):
        # c = 0: channel j is vacuum only, the one stream it draws from channel_rng(seed, j)
        streams = sample_pixel_streams(np.zeros(3), 1.0, held_ramp(4096), 4096, 23, lo_phases=[0.0, 1.0, 2.0])
        for j, rec in enumerate(streams):
            np.testing.assert_array_equal(rec.samples, 0.5 * channel_rng(23, j).standard_normal(4096))


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
        with pytest.raises(ValueError, match="coupled power"):
            sample_pixel_streams([0.8, 0.8], 0.7, self.RAMP, 64, 5)


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
    st.builds(ReceiverModel, pd_efficiency=st.floats(min_value=0.0, max_value=1.0),
              snc_db=st.floats(min_value=0.0), on_chip_loss_db=_db, collimator_loss_db=_db,
              antenna_insertion_db=_db, rf_loss_db=_db),
)
def test_channel_effective_efficiency_within_unit_interval(c_j, model):
    assert 0.0 <= channel_effective_efficiency(c_j, model) <= 1.0


@pytest.mark.parametrize("model, expected", [
    (ReceiverModel(), 10 ** (-2.64 / 10)),  # on-chip loss beyond the antenna insertion: 5.62 - 3.78 dB
    (ReceiverModel(pd_efficiency=0.5), 0.5 * 10 ** -0.08),  # the photodiode's 3.01 dB exceeds it
], ids=["on-chip-limited", "pd-limited"])
def test_channel_effective_efficiency_pinned(model, expected):
    assert expected == pytest.approx({0.7: 0.5445027, 0.5: 0.4158819}[model.pd_efficiency], abs=1e-7)
    assert channel_effective_efficiency(1.0, model) == pytest.approx(expected, rel=1e-12)


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
