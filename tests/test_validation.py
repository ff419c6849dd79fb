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
    vacuum,
    wigner_density,
    wigner_halfmax_axes,
)
from qpasim.receiver import PhaseRamp, ReceiverModel, channel_effective_efficiency, sample_pixel_streams

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
    lambda: lossy_squeezed_variances(NAN, 0.5),
    lambda: wigner_halfmax_axes(NAN, 0.0, 0.5),
    lambda: wigner_halfmax_axes(0.5, NAN, 0.5),
    lambda: wigner_density(NAN, 0.0, 0.5, 0.0, 0.0),
    lambda: wigner_density(0.5, NAN, 0.5, 0.0, 0.0),
    lambda: channel_effective_efficiency(NAN, ReceiverModel()),
    lambda: channel_effective_efficiency(2.0, ReceiverModel()),
    lambda: element_pattern(ApertureGeometry(), NAN),
    lambda: element_pattern(ApertureGeometry(), np.array([0.0, NAN])),
], ids=["GaussianState.mean", "GaussianState.cov", "apply_linear_network", "quadrature_variance",
        "lossy_squeezed_variances", "wigner_halfmax_axes.r", "wigner_halfmax_axes.theta",
        "wigner_density.r", "wigner_density.theta", "channel_effective_efficiency",
        "channel_effective_efficiency.over_unity", "element_pattern", "element_pattern.array"])
def test_non_finite_state_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: lossy_squeezed_variances(-0.5, 0.5),
    lambda: wigner_halfmax_axes(-0.5, 0.0, 0.5),
    lambda: wigner_density(-0.5, 0.0, 0.5, 0.0, 0.0),
], ids=["lossy_squeezed_variances", "wigner_halfmax_axes", "wigner_density"])
def test_negative_squeezing_rejected(make):
    # a negative r would silently swap the squeezed and anti-squeezed axes
    with pytest.raises(ValueError, match=">= 0"):
        make()
