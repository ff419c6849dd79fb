"""Every range check rejects NaN, so bad input fails at construction instead of propagating."""

import dataclasses

import numpy as np
import pytest

from qpasim.aperture import ApertureGeometry, BeamSpec, ChannelSettings, CouplingVector, element_pattern
from qpasim.gaussian import (
    GaussianState,
    SqueezedVacuumSpec,
    apply_linear_network,
    lossy_squeezed_variances,
    quadrature_variance,
    symplectic_form,
    vacuum,
)
from qpasim.receiver import (
    MeasurementRecord,
    PhaseRamp,
    ReceiverModel,
    channel_effective_efficiency,
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


@pytest.mark.parametrize("make, kwargs", _nan_field_cases())
def test_nan_field_rejected(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"couplings": [0.1, NAN]},
    {"r": NAN},
    {"lo_phases": [0.0, NAN]},
    {"snc_db": NAN},
    pytest.param({"snc_db": -1.0}, id="snc_db.negative"),
    pytest.param({"n_samples": 2.5}, id="n_samples.fractional"),
    # 1.7 drew seed 1's samples into records that said seed=1.7, and -1 raised only after the outputs were allocated
    pytest.param({"master_seed": 1.7}, id="master_seed.fractional"),
    pytest.param({"master_seed": True}, id="master_seed.bool"),
    pytest.param({"master_seed": -1}, id="master_seed.negative"),
    # (3 - 1) / 1e-310 overflows, which NumPy only warns about when it time-stamps the samples
    pytest.param({"ramp": PhaseRamp(frequency_hz=0.0, sampling_rate=1e-310), "n_samples": 3},
                 id="ramp.time-axis-overflows"),
], ids=lambda kw: next(iter(kw)))
def test_sample_pixel_streams_rejects_nan(kwargs):
    args = dict(couplings=[0.1, 0.2], r=0.5, ramp=PhaseRamp(), n_samples=16, master_seed=1)
    with pytest.raises(ValueError):
        sample_pixel_streams(**dict(args, **kwargs))



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
    lambda: symplectic_form(0),
], ids=["PhaseRamp.times.fractional", "PhaseRamp.times.bool", "PhaseRamp.times.negative", "vacuum.fractional",
        "vacuum.bool", "symplectic_form.zero"])
def test_malformed_count_rejected(make):
    with pytest.raises(ValueError, match="n_samples|n_modes"):
        make()


def test_ramp_times_reject_an_overflowing_time_axis():
    with pytest.raises(ValueError, match="overflow"):
        PhaseRamp(frequency_hz=0.0, sampling_rate=1e-310).times(3)


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
    lambda: channel_effective_efficiency(NAN, ReceiverModel()),
    lambda: channel_effective_efficiency(2.0, ReceiverModel()),
    lambda: element_pattern(ApertureGeometry(), NAN),
    lambda: element_pattern(ApertureGeometry(), np.array([0.0, NAN])),
], ids=["GaussianState.mean", "GaussianState.cov", "GaussianState.cov.offdiag_nan",
        "GaussianState.cov.offdiag_neg_inf", "GaussianState.mean.inf", "GaussianState.cov.sum_overflows",
        "apply_linear_network", "quadrature_variance", "lossy_squeezed_variances", "channel_effective_efficiency",
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
