"""Every range check rejects NaN, so bad input fails at construction instead of propagating."""

import dataclasses

import pytest

from qpasim.aperture import ApertureGeometry, BeamSpec, ChannelSettings, CouplingVector
from qpasim.receiver import PhaseRamp, ReceiverModel, sample_pixel_streams

NAN = float("nan")


def _nan_field_cases():
    for cls in (ApertureGeometry, BeamSpec, ReceiverModel, PhaseRamp):
        for f in dataclasses.fields(cls):
            if isinstance(f.default, (int, float)):
                yield pytest.param(cls, {f.name: NAN}, id="%s.%s" % (cls.__name__, f.name))
    yield pytest.param(ChannelSettings, {"gains": [1.0, NAN], "phases": [0.0, 0.0]}, id="ChannelSettings.gains")
    yield pytest.param(ChannelSettings, {"gains": [1.0, 1.0], "phases": [0.0, NAN]}, id="ChannelSettings.phases")
    yield pytest.param(CouplingVector, {"c": [0.1, NAN]}, id="CouplingVector.c")


@pytest.mark.parametrize("make, kwargs", _nan_field_cases())
def test_nan_field_rejected(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"couplings": [0.1, NAN]},
    {"r": NAN},
    {"lo_phases": [0.0, NAN]},
    {"snc_db": NAN},
], ids=lambda kw: next(iter(kw)))
def test_sample_pixel_streams_rejects_nan(kwargs):
    args = dict(couplings=[0.1, 0.2], r=0.5, ramp=PhaseRamp(), n_samples=16, master_seed=1)
    with pytest.raises(ValueError):
        sample_pixel_streams(**dict(args, **kwargs))

