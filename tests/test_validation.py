"""Every range check rejects NaN, so bad input fails at construction instead of propagating."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from qpasim.aperture import (ApertureGeometry, BeamSpec, ChannelSettings, CouplingVector, element_pattern,
                             geometric_efficiency)
from qpasim.gaussian import (
    GaussianState,
    SqueezedVacuumSpec,
    apply_linear_network,
    apply_loss,
    lossy_squeezed_variances,
    quadrature_variance,
    squeezed_vacuum,
    vacuum,
)
from qpasim import receiver
from qpasim.chain import predict
from qpasim.receiver import (
    MeasurementRecord,
    PhaseRamp,
    ReceiverModel,
    channel_effective_efficiency,
    channel_rng,
    sample_pixel_streams,
)

NAN = float("nan")
INF = float("inf")


def _nan_field_cases():
    required = {SqueezedVacuumSpec: {"r": 0.5}}
    for cls in (ApertureGeometry, BeamSpec, ReceiverModel, PhaseRamp, SqueezedVacuumSpec):
        base = required.get(cls, {})
        for f in dataclasses.fields(cls):
            if f.name in base or isinstance(f.default, (int, float)):
                yield pytest.param(cls, dict(base, **{f.name: NAN}), id="%s.%s" % (cls.__name__, f.name))
    yield pytest.param(ChannelSettings, {"gains": [1.0, NAN], "phases": [0.0, 0.0]}, id="ChannelSettings.gains")
    yield pytest.param(ChannelSettings, {"gains": [1.0, 1.0], "phases": [0.0, NAN]}, id="ChannelSettings.phases")
    yield pytest.param(CouplingVector, {"c": [0.1, NAN]}, id="CouplingVector.c")
    # a fractional count built 3 asymmetric antennas or 3 strips on a 2.5-strip pitch; True passed as 1
    yield pytest.param(ApertureGeometry, {"n_antennas": 2.5}, id="ApertureGeometry.n_antennas.fractional")
    yield pytest.param(ApertureGeometry, {"n_waveguides": 2.5}, id="ApertureGeometry.n_waveguides.fractional")
    yield pytest.param(ApertureGeometry, {"n_antennas": True}, id="ApertureGeometry.n_antennas.bool")
    # each input rule has one owner: the gains' power, the coupling column, the seeds and the squeezing r
    # (1e-200 squares to 0: geometric_efficiency returned NaN for it, and channel_rng truncated 1.7 and True to 1)
    tiny, zeros = np.r_[1e-200, np.zeros(31)], np.zeros(32)

    def efficiency(gains):
        return geometric_efficiency(CouplingVector(np.full(32, 0.1)), ChannelSettings(gains, zeros), ApertureGeometry())

    yield pytest.param(ChannelSettings, {"gains": zeros, "phases": zeros}, id="ChannelSettings.gains.zero")
    yield pytest.param(ChannelSettings, {"gains": tiny, "phases": zeros}, id="ChannelSettings.gains.underflow")
    yield pytest.param(ChannelSettings, {"gains": [], "phases": []}, id="ChannelSettings.gains.empty")
    # 1e200 squares to inf: combine_rf returned the vacuum for it and geometric_efficiency NaN
    yield pytest.param(ChannelSettings, {"gains": [1e200, 1.0], "phases": [0.0, 0.0]},
                       id="ChannelSettings.gains.overflow")
    # subnormal power: 3e-162 gave geometric_efficiency 0.500 for 0.597, and 1e-160 made combine_rf raise "amplify"
    yield pytest.param(ChannelSettings, {"gains": [3e-162, 0.0], "phases": [0.0, 0.0]},
                       id="ChannelSettings.gains.subnormal")
    yield pytest.param(ChannelSettings, {"gains": [1e-160, 0.0], "phases": [0.0, 0.0]},
                       id="ChannelSettings.gains.subnormal_square")
    yield pytest.param(efficiency, {"gains": tiny}, id="geometric_efficiency.gains.underflow")
    yield pytest.param(CouplingVector, {"c": [[0.1, 0.2]]}, id="CouplingVector.c.2-D")
    yield pytest.param(CouplingVector, {"c": []}, id="CouplingVector.c.empty")
    for seed, stream, name in [(1.7, 0, "master_seed.fractional"), (True, 0, "master_seed.bool"),
                               (-1, 0, "master_seed.negative"), (0, -1, "stream.negative"),
                               (0, 2.5, "stream.fractional")]:
        yield pytest.param(channel_rng, {"master_seed": seed, "stream": stream}, id="channel_rng." + name)
    yield pytest.param(SqueezedVacuumSpec, {"r": 355.0}, id="SqueezedVacuumSpec.r.overflows")
    # rejection branches that no other case reaches
    yield pytest.param(ApertureGeometry, {"n_antennas": 0}, id="ApertureGeometry.n_antennas.zero")
    yield pytest.param(ApertureGeometry, {"n_waveguides": 0}, id="ApertureGeometry.n_waveguides.zero")
    yield pytest.param(ApertureGeometry, {"n_waveguides": 32}, id="ApertureGeometry.n_waveguides.overfull")
    yield pytest.param(ChannelSettings, {"gains": [1.0, 1.0], "phases": [0.0]}, id="ChannelSettings.shapes")
    yield pytest.param(geometric_efficiency, {"c": CouplingVector([0.1, 0.2]), "weights": ChannelSettings(
        np.ones(3), np.zeros(3)), "geometry": ApertureGeometry()}, id="geometric_efficiency.length")
    yield pytest.param(GaussianState, {"mean": np.zeros(3), "cov": 0.25 * np.eye(3)}, id="GaussianState.mean.odd")
    yield pytest.param(GaussianState, {"mean": np.zeros(2), "cov": 0.25 * np.eye(4)}, id="GaussianState.cov.shape")
    yield pytest.param(apply_loss, {"state": vacuum(1), "mode": 1, "eta": 0.5}, id="apply_loss.mode.range")
    # no rows raised IndexError from the passivity check's SVD
    yield pytest.param(apply_linear_network, {"state": vacuum(3), "matrix": np.zeros((0, 3))},
                       id="apply_linear_network.no_outputs")
    # 1e300 degrees overflowed in element_pattern, and without -W error gave all-zero couplings and no miss warning
    yield pytest.param(BeamSpec, {"incidence_angle_deg": 1e300}, id="BeamSpec.incidence_angle_deg.overflow")
    yield pytest.param(BeamSpec, {"incidence_angle_deg": -90.0}, id="BeamSpec.incidence_angle_deg.grazing")
    # (pi w^2 / 8) ** 0.25 raised OverflowError in coupling_vector
    yield pytest.param(BeamSpec, {"diameter_um": 1e160}, id="BeamSpec.diameter_um.square_overflows")
    yield pytest.param(lossy_squeezed_variances, {"r": 0.5, "eta": 1.5}, id="lossy_squeezed_variances.eta")
    # at and above 20 log10(DBL_MAX) dB, 10^(IL/20) overflows: 1e4 dB gave all-zero couplings with no miss
    # warning, and geometric_efficiency and matched_settings raised OverflowError
    yield pytest.param(ApertureGeometry, {"insertion_loss_db": 20 * np.log10(np.finfo(float).max)},
                       id="ApertureGeometry.insertion_loss_db.overflows")
    # below 2e3 pi / DBL_MAX nm, 2 pi / (wavelength_nm * 1e-3) is inf: 1e-310 nm gave NaN couplings at any
    # incidence, which CouplingVector rejected as a coupled power above unity
    yield pytest.param(ApertureGeometry, {"wavelength_nm": np.nextafter(2e3 * np.pi / np.finfo(float).max, 0)},
                       id="ApertureGeometry.wavelength_nm.underflows")
    # k x_j sin(theta) overflowed in coupling_vector: a RuntimeWarning, and without -W error CouplingVector's
    # coupled-power message, which names the wrong input
    yield pytest.param(ApertureGeometry, {"wavelength_nm": 1e-303}, id="ApertureGeometry.wavelength_nm.tilt_overflows")
    yield pytest.param(ApertureGeometry, {"wavelength_nm": 2e3 * np.pi / np.finfo(float).max},
                       id="ApertureGeometry.wavelength_nm.tilt_overflows_at_the_floor")
    # the edges of a strip far off axis rounded to one double: 0/0 NaN couplings for a beam on antenna 20
    yield pytest.param(ApertureGeometry, {"pitch_um": 1e15}, id="ApertureGeometry.pitch_um.strip_edges_merge")


@pytest.mark.parametrize("make, kwargs", _nan_field_cases())
def test_nan_field_rejected(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


def test_more_outputs_than_inputs_add_vacuum():
    # a column of norm below one splits one mode over two, and vacuum enters the port it leaves unused: vacuum in
    # is vacuum out, the 2-mode vacuum to the bit (more outputs than inputs used to be rejected)
    out = apply_linear_network(vacuum(1), [[0.5], [0.5]])
    assert np.array_equal(out.cov, vacuum(2).cov) and np.array_equal(out.mean, np.zeros(4))


@pytest.mark.parametrize("matrix", [
    # sigma^2 = 1.25: a tall matrix must not amplify either
    pytest.param([[1.0], [0.5]], id="amplifies"),
    pytest.param([[NAN], [0.1]], id="nan"),
])
def test_tall_network_keeps_the_passivity_rule(matrix):
    message = "matrix must be finite and must not amplify (largest singular value <= 1)"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        apply_linear_network(vacuum(1), matrix)


@pytest.mark.parametrize("kwargs", [
    {"couplings": [0.1, NAN]},
    {"r": NAN},
    {"lo_phases": [0.0, NAN]},
    # the sampler's law reads the LO offsets before any MeasurementRecord checks them, so the sampler checks them
    pytest.param({"lo_phases": [0.0, INF]}, id="lo_phases.inf"),
    pytest.param({"lo_phases": [-INF, 0.0]}, id="lo_phases.neg_inf"),
    {"snc_db": NAN},
    pytest.param({"snc_db": -1.0}, id="snc_db.negative"),
    pytest.param({"n_samples": 2.5}, id="n_samples.fractional"),
    # 1.7 drew seed 1's samples into records that said seed=1.7, and -1 raised only after the outputs were allocated
    pytest.param({"master_seed": 1.7}, id="master_seed.fractional"),
    pytest.param({"master_seed": True}, id="master_seed.bool"),
    pytest.param({"master_seed": -1}, id="master_seed.negative"),
    # CouplingVector owns the column's shape: [] returned no records, and [[0.1, 0.2]] failed only in the sampler
    pytest.param({"couplings": [[0.1, 0.2]]}, id="couplings.2-D"),
    pytest.param({"couplings": []}, id="couplings.empty"),
    # e^{2r} overflows: r = 400 failed only in GaussianState, after an overflow warning
    pytest.param({"r": 400.0}, id="r.overflows"),
], ids=lambda kw: next(iter(kw)))
def test_sample_pixel_streams_rejects_nan(kwargs):
    args = dict(couplings=[0.1, 0.2], r=0.5, ramp=PhaseRamp(), n_samples=16, master_seed=1)
    with pytest.raises(ValueError):
        sample_pixel_streams(**dict(args, **kwargs))



@pytest.mark.parametrize("kwargs, name", [
    pytest.param({"kappa": -0.1}, "kappa", id="kappa.negative"),
    pytest.param({"kappa": 1.1}, "kappa", id="kappa.above_one"),
    pytest.param({"kappa": NAN}, "kappa", id="kappa.nan"),
    pytest.param({"settings": ChannelSettings(np.ones(3), np.zeros(3))}, "settings", id="settings.length"),
])
def test_predict_rejects_its_own_inputs(kwargs, name):
    # without these rules, kappa 1.1 scaled [0.1, 0.2] up and still returned variances, NaN failed as a coupled
    # power, and settings of the wrong length failed in apply_linear_network, which names neither input
    args = dict(c=[0.1, 0.2], kappa=0.5, r=0.5, settings=ChannelSettings(np.ones(2), np.zeros(2)),
                model=ReceiverModel())
    with pytest.raises(ValueError, match=name):
        predict(**dict(args, **kwargs))


@pytest.mark.parametrize("field, value", [
    ("sampling_rate", NAN),
    ("sampling_rate", 0.0),
    ("sampling_rate", -20e6),
    ("sampling_rate", INF),
    ("lo_phase", NAN),
    ("lo_phase", INF),
    ("channel", 1.7),
    ("channel", NAN),
    ("channel", "3"),
    ("channel", True),
    ("seed", 1.7),
    ("seed", None),
    ("seed", True),
    ("seed", -3),
    pytest.param("samples", np.zeros((2, 3)), id="samples-2d"),
    pytest.param("samples", 0.5, id="samples-scalar"),
    pytest.param("sampling_rate", 1e-310, id="sampling_rate-time-axis-overflows"),
])
def test_malformed_record_rejected(field, value):
    # a NaN or zero rate wrote "nan"/"inf" times, %d truncated 1.7 to 1, and a 2-D array failed in the writer
    args = dict(channel=0, samples=np.zeros(4), seed=1, sampling_rate=20e6)
    with pytest.raises(ValueError):
        MeasurementRecord(**dict(args, **{field: value}))


@pytest.mark.parametrize("make", [
    # 2.5 stamped 3 samples, True 1 and -1 none
    lambda: PhaseRamp().times(2.5),
    lambda: PhaseRamp().times(True),
    lambda: PhaseRamp().times(-1),
    # 1.5 raised TypeError from np.zeros, True built a 1-mode state and 0 raised NumPy's "new_shape" error
    lambda: vacuum(1.5),
    lambda: vacuum(True),
], ids=["PhaseRamp.times.fractional", "PhaseRamp.times.bool", "PhaseRamp.times.negative", "vacuum.fractional",
        "vacuum.bool"])
def test_malformed_count_rejected(make):
    with pytest.raises(ValueError, match="n_samples|n_modes"):
        make()


def test_ramp_times_reject_an_overflowing_time_axis():
    # (3 - 1) / 1e-310 overflows; the ramp that owns the rate rejects it before any axis is stamped
    with pytest.raises(ValueError, match="sampling_rate"):
        PhaseRamp(frequency_hz=0.0, sampling_rate=1e-310)


@pytest.mark.parametrize("make", [
    lambda rate: PhaseRamp(frequency_hz=0.0, sampling_rate=rate),
    lambda rate: MeasurementRecord(channel=0, samples=np.zeros(3), seed=1, sampling_rate=rate),
], ids=["PhaseRamp", "MeasurementRecord"])
def test_sampling_rate_floor_is_exact(make):
    floor = receiver._MIN_RATE
    assert make(floor).sampling_rate == floor
    with pytest.raises(ValueError, match="sampling_rate"):
        make(np.nextafter(floor, 0))
    # at the floor the last stamp of the longest array NumPy can index, (2^63 - 1) / rate, is finite
    assert 2.0**63 / floor < np.finfo(float).max
    assert np.all(np.isfinite(PhaseRamp(0.0, sampling_rate=floor).times(3)))


@pytest.mark.parametrize("make, field, dtype", [
    pytest.param(lambda a: ChannelSettings(a, np.zeros(2)), "gains", float, id="ChannelSettings.gains"),
    pytest.param(lambda a: ChannelSettings(np.ones(2), a), "phases", float, id="ChannelSettings.phases"),
    pytest.param(CouplingVector, "c", complex, id="CouplingVector.c"),
    pytest.param(lambda a: GaussianState(a, 0.25 * np.eye(2)), "mean", float, id="GaussianState.mean"),
])
def test_owner_copies_its_input(make, field, dtype):
    # writing into the caller's array after construction left NaN gains, an inf mean and sum |c|^2 = 50
    given = np.full(2, 0.1, dtype=dtype)
    owner = make(given)
    given[:] = NAN
    assert np.array_equal(getattr(owner, field), np.full(2, 0.1, dtype=dtype))


def _real_owner_cases():
    """Every owner of a real array or scalar, each with the inputs it must reject and a real value that it accepts."""
    array_owners = [
        (lambda a: GaussianState(a, 0.25 * np.eye(2)), "mean", "GaussianState.mean"),
        (lambda a: GaussianState(np.zeros(2), np.diag(a)), "cov", "GaussianState.cov"),
        (lambda a: ChannelSettings(a, np.zeros(2)), "gains", "ChannelSettings.gains"),
        (lambda a: ChannelSettings(np.ones(2), a), "phases", "ChannelSettings.phases"),
        (lambda a: MeasurementRecord(channel=0, samples=a, seed=1, sampling_rate=20e6), "samples",
         "MeasurementRecord.samples"),
        (lambda a: sample_pixel_streams([0.1, 0.2], 0.5, PhaseRamp(), 16, 1, lo_phases=a), "lo_phases",
         "sample_pixel_streams.lo_phases"),
        (lambda a: element_pattern(ApertureGeometry(), a), "theta_deg", "element_pattern.theta_deg"),
        (ApertureGeometry().mode_segments, "center_um", "ApertureGeometry.mode_segments.center_um"),
    ]
    array_inputs = [
        # a complex array only warned and lost its imaginary part: phases [0.1 + 1j, 0.2] were stored as [0.1, 0.2]
        ("array", np.array([0.3 + 2j, 0.25])),
        # a list of Python complex numbers raised TypeError
        ("list", [0.3 + 2j, 0.25]),
        # the rule is the dtype's, so a zero imaginary part is rejected too
        ("zero_imag", np.array([0.3, 0.25], dtype=complex)),
        # the float cast parsed strings: gains ["0.3", "0.25"] were stored as [0.3, 0.25]
        ("numeric_string", ["0.3", "0.25"]),
    ]
    # the dataclass fields with a float default, and every scalar argument; the other fields are set so that 0.3
    # passes each rule: a top-hat narrower than a 0.3 um pitch, and a held ramp below a 0.3 Hz rate
    scalar_owners = [(lambda v: SqueezedVacuumSpec(r=v), "r", "SqueezedVacuumSpec.r")]
    for cls, base in [(ReceiverModel, {}), (PhaseRamp, {"frequency_hz": 0.0}), (BeamSpec, {}),
                      (ApertureGeometry, {"mode_profile": "tophat", "antenna_width_um": 0.1})]:
        for f in dataclasses.fields(cls):
            if isinstance(f.default, float):
                scalar_owners.append((lambda v, cls=cls, kw=base, name=f.name:
                                      cls(**dict(kw, **{name: v})), f.name, "%s.%s" % (cls.__name__, f.name)))
    scalar_owners += [
        (lambda v: MeasurementRecord(0, np.zeros(3), 1, sampling_rate=v), "sampling_rate",
         "MeasurementRecord.sampling_rate"),
        (lambda v: MeasurementRecord(0, np.zeros(3), 1, 20e6, lo_phase=v), "lo_phase", "MeasurementRecord.lo_phase"),
        (lambda v: apply_loss(vacuum(1), 0, v), "eta", "apply_loss.eta"),
        (lambda v: lossy_squeezed_variances(0.5, v), "eta", "lossy_squeezed_variances.eta"),
        (lambda v: predict([0.1, 0.2], v, 0.5, ChannelSettings(np.ones(2), np.zeros(2)), ReceiverModel()), "kappa",
         "predict.kappa"),
        (lambda v: quadrature_variance(vacuum(1), [1.0], v), "theta", "quadrature_variance.theta"),
    ]
    scalar_inputs = [
        # NumPy orders complex scalars lexicographically, so each range check passed 0.3 + 2j and kept it
        ("numpy_scalar", np.complex128(0.3 + 2j)),
        # a Python complex, a string or None raised TypeError from the comparison
        ("complex", 0.3 + 2j),
        ("numeric_string", "0.3"),
        ("none", None),
    ]
    for owners, inputs, real in [(array_owners, array_inputs, np.array([0.3, 0.25])),
                                 (scalar_owners, scalar_inputs, 0.3)]:
        for make, field, owner in owners:
            for name, given in inputs:
                yield pytest.param(make, field, given, real, id="%s-%s" % (name, owner))


@pytest.mark.parametrize("make, field, given, real", _real_owner_cases())
def test_real_owner_rejects_complex_input(make, field, given, real):
    with pytest.raises(ValueError, match="^%s must be real$" % field):
        make(given)
    # the real value passes every rule
    make(real)


@pytest.mark.parametrize("owner, field, value", [
    pytest.param(ChannelSettings([1.0, 1.0], [0.0, 0.0]), "gains", np.array([NAN, 1.0]), id="ChannelSettings.gains"),
    pytest.param(MeasurementRecord(channel=0, samples=np.zeros(3), seed=1, sampling_rate=20e6), "sampling_rate", NAN,
                 id="MeasurementRecord.sampling_rate"),
])
def test_owner_fields_are_frozen(owner, field, value):
    # an assigned field skipped its owner's rule: NaN gains made geometric_efficiency return NaN
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(owner, field, value)


@pytest.mark.parametrize("kwargs", [
    pytest.param({"master_seed": 1.7}, id="master_seed.fractional"),
    pytest.param({"master_seed": True}, id="master_seed.bool"),
    pytest.param({"master_seed": -1}, id="master_seed.negative"),
    pytest.param({"r": 400.0}, id="r.overflows"),
])
def test_sample_pixel_streams_rejects_before_allocating(kwargs):
    # the outputs of 2 x 2^20 samples take 16 MiB; a bad seed or r must be rejected before they are allocated
    args = dict(couplings=[0.1, 0.2], r=0.5, ramp=PhaseRamp(), n_samples=1 << 20, master_seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            sample_pixel_streams(**dict(args, **kwargs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_channel_rng_accepts_numpy_integers():
    assert np.array_equal(channel_rng(np.int64(3), np.int64(2)).random(8), channel_rng(3, 2).random(8))


def test_largest_squeezing_stays_finite():
    # 2 r = 708 lies below ln(DBL_MAX) = 709.78, so e^{2r} and both variances stay finite
    assert np.all(np.isfinite(lossy_squeezed_variances(354.0, 0.5)))
    assert np.all(np.isfinite(squeezed_vacuum(SqueezedVacuumSpec(354.0)).cov))


def test_record_channel_accepts_numpy_integers():
    rec = MeasurementRecord(channel=np.int64(5), samples=[0.5], seed=1, sampling_rate=20e6)
    assert rec.channel == 5 and type(rec.channel) is int


def test_counts_accept_numpy_integers():
    geometry = ApertureGeometry(n_antennas=np.int64(4), n_waveguides=np.int64(16))
    assert geometry.antenna_centers_um.tolist() == [-26.25, -8.75, 8.75, 26.25]
    records = sample_pixel_streams([0.1, 0.2], 0.5, PhaseRamp(), np.int64(16), 1)
    assert [rec.samples.size for rec in records] == [16, 16]


@pytest.mark.parametrize("make", [
    lambda: GaussianState(mean=[NAN, 0.0], cov=0.25 * np.eye(2)),
    lambda: GaussianState(mean=[0.0, 0.0], cov=[[INF, 0.0], [0.0, 0.25]]),
    lambda: GaussianState(mean=[0.0, 0.0], cov=[[0.25, NAN], [NAN, 0.25]]),
    lambda: GaussianState(mean=[0.0, 0.0], cov=[[0.25, -INF], [-INF, 0.25]]),
    lambda: GaussianState(mean=[INF, 0.0], cov=0.25 * np.eye(2)),
    lambda: GaussianState(mean=np.zeros(2), cov=np.diag([1e308, 1e308])),
    lambda: apply_linear_network(vacuum(2), [[NAN, 0.1]]),
    lambda: quadrature_variance(vacuum(1), [1.0], NAN),
    lambda: lossy_squeezed_variances(NAN, 0.5),
    lambda: lossy_squeezed_variances(400.0, 0.0),
    lambda: channel_effective_efficiency(NAN, ReceiverModel()),
    lambda: channel_effective_efficiency(2.0, ReceiverModel()),
    lambda: element_pattern(ApertureGeometry(), NAN),
    lambda: element_pattern(ApertureGeometry(), np.array([0.0, NAN])),
], ids=["GaussianState.mean", "GaussianState.cov", "GaussianState.cov.offdiag_nan",
        "GaussianState.cov.offdiag_neg_inf", "GaussianState.mean.inf", "GaussianState.cov.sum_overflows",
        "apply_linear_network", "quadrature_variance", "lossy_squeezed_variances",
        "lossy_squeezed_variances.overflows", "channel_effective_efficiency",
        "channel_effective_efficiency.over_unity", "element_pattern", "element_pattern.array"])
def test_non_finite_state_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: lossy_squeezed_variances(-0.5, 0.5),
], ids=["lossy_squeezed_variances"])
def test_negative_squeezing_rejected(make):
    # a negative r would silently swap the squeezed and anti-squeezed axes
    with pytest.raises(ValueError, match=">= 0"):
        make()
