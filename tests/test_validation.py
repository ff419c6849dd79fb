"""Every range check rejects NaN, so bad input fails at construction instead of propagating."""

import dataclasses

import numpy as np
import pytest

from qpasim.aperture import ApertureGeometry, BeamSpec, ChannelSettings, CouplingVector
from qpasim.gaussian import GaussianState, apply_linear_network, quadrature_variance, vacuum
from qpasim.receiver import PhaseRamp, ReceiverModel, sample_pixel_streams

NAN = float("nan")
INF = float("inf")


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



@pytest.mark.parametrize("make", [
    lambda: GaussianState(mean=[NAN, 0.0], cov=0.25 * np.eye(2)),
    lambda: GaussianState(mean=[0.0, 0.0], cov=[[INF, 0.0], [0.0, 0.25]]),
    lambda: apply_linear_network(vacuum(2), [[NAN, 0.1]]),
    lambda: quadrature_variance(vacuum(1), [1.0], NAN),
], ids=["GaussianState.mean", "GaussianState.cov", "apply_linear_network", "quadrature_variance"])
def test_non_finite_state_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()
