"""The covariance oracle of the whole chain: one squeezed beam on the array, attenuated and RF-combined.

The fourth layer, above :mod:`qpasim.receiver`.  The source is squeezed vacuum on mode 0 of n modes, the other
n - 1 in vacuum, and the coupling column c spreads it over the n antennas as the passive network T whose first
column is c.  The chain efficiency kappa then attenuates every channel alike.  A loss kappa on each of the n modes
is the diagonal network sqrt(kappa) I, and the passive law of :mod:`qpasim.gaussian` composes: it maps
cov - I/4 to S (cov - I/4) S^T, so two maps in turn are the map of their product.  Hence, exactly, and to
rounding in floating point,

    T with column sqrt(kappa) c  ==  the column network T, then n losses kappa (32 on the reference array)

and the chain to the antennas is one :func:`~qpasim.gaussian.apply_linear_network` call.  :func:`predict`
combines its output with :func:`~qpasim.receiver.combine_rf` and adds the electronic noise: the principal
variances that the combined record of :func:`~qpasim.receiver.sample_pixel_streams` estimates.
"""

from __future__ import annotations

import numpy as np

from qpasim.aperture import ChannelSettings, CouplingVector
from qpasim.gaussian import VACUUM_VARIANCE, GaussianState, SqueezedVacuumSpec, apply_linear_network, squeezed_vacuum
from qpasim.receiver import ReceiverModel, combine_rf, electronic_noise_variance


def source_state(c, r: float) -> GaussianState:
    """Squeezed vacuum of parameter ``r`` on mode 0 of ``len(c)`` modes, through the network whose first column is c.

    :class:`CouplingVector` checks ``c``, :class:`SqueezedVacuumSpec` checks ``r``.
    """
    c = CouplingVector(c).c
    n = c.size
    cov = VACUUM_VARIANCE * np.eye(2 * n)
    cov[:2, :2] = squeezed_vacuum(SqueezedVacuumSpec(r)).cov
    network = np.zeros((n, n), dtype=complex)
    network[:, 0] = c
    return apply_linear_network(GaussianState(mean=np.zeros(2 * n), cov=cov), network)


def predict(c, kappa: float, r: float, settings: ChannelSettings, model: ReceiverModel) -> tuple[float, float]:
    """(min, max) variance of the combined record: ``source_state(sqrt(kappa) c, r)``, RF-combined, plus noise.

    ``kappa`` is the chain efficiency of every channel and must lie in [0, 1]; ``settings`` must have one channel
    per coupling.  The electronic-noise variance of ``model`` is added to both principal variances.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1], got %r" % (kappa,))
    state = source_state(np.sqrt(kappa) * np.asarray(c), r)
    if settings.n_channels != state.n_modes:
        raise ValueError("settings has %d channels for %d couplings" % (settings.n_channels, state.n_modes))
    v_min, v_max = np.linalg.eigvalsh(combine_rf(state, settings).cov)
    e = electronic_noise_variance(model)
    return float(v_min + e), float(v_max + e)
