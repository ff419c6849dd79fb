"""The covariance oracle of the whole chain: one squeezed beam on the array, attenuated and RF-combined.

The fourth layer, above :mod:`qpasim.receiver`.  The source is one mode of squeezed vacuum, and the coupling
column c spreads it over the n antennas as the n x 1 passive map c, with vacuum entering the n - 1 ports that it
leaves unused.  The chain efficiency kappa then attenuates every channel alike.  A loss kappa on each of the n
modes is the diagonal network sqrt(kappa) I, and the passive law of :mod:`qpasim.gaussian` composes: it maps
cov - I/4 to S (cov - I/4) S^T, so two maps in turn are the map of their product.  Hence, exactly, and to
rounding in floating point,

    the column sqrt(kappa) c  ==  the column c, then n losses kappa (32 on the reference array)

and the chain to the antennas is one :func:`~qpasim.gaussian.apply_linear_network` call on the one-mode source.
:func:`predict` combines its output with :func:`~qpasim.receiver.combine_rf` and adds the electronic noise: the
principal variances that the combined record of :func:`~qpasim.receiver.sample_pixel_streams` estimates.
"""

from __future__ import annotations

import numpy as np

from qpasim.aperture import ChannelSettings, CouplingVector
from qpasim.gaussian import GaussianState, SqueezedVacuumSpec, _real, apply_linear_network, squeezed_vacuum
from qpasim.receiver import ReceiverModel, combine_rf, electronic_noise_variance


def source_state(c, r: float) -> GaussianState:
    """Squeezed vacuum of parameter ``r`` through the ``len(c)`` x 1 column c: one mode in, ``len(c)`` modes out.

    :class:`CouplingVector` checks ``c``, :class:`SqueezedVacuumSpec` checks ``r``.
    """
    return apply_linear_network(squeezed_vacuum(SqueezedVacuumSpec(r)), CouplingVector(c).c[:, np.newaxis])


def predict(c, kappa: float, r: float, settings: ChannelSettings, model: ReceiverModel) -> tuple[float, float]:
    """(min, max) variance of the combined record: ``source_state(sqrt(kappa) c, r)``, RF-combined, plus noise.

    ``kappa`` is the chain efficiency of every channel and must lie in [0, 1]; ``settings`` must have one channel
    per coupling.  The electronic-noise variance of ``model`` is added to both principal variances.
    """
    if not 0.0 <= _real(kappa, "kappa") <= 1.0:
        raise ValueError("kappa must lie in [0, 1], got %r" % (kappa,))
    state = source_state(np.sqrt(kappa) * np.asarray(c), r)
    if settings.n_channels != state.n_modes:
        raise ValueError("settings has %d channels for %d couplings" % (settings.n_channels, state.n_modes))
    v_min, v_max = np.linalg.eigvalsh(combine_rf(state, settings).cov)
    e = electronic_noise_variance(model)
    return float(v_min + e), float(v_max + e)
