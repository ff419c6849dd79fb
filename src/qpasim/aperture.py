"""Antenna geometry, beam profiles, overlap integrals, and geometric loss.

The transverse model is one-dimensional along the array axis; the orthogonal
axis is assumed perfectly matched by the antenna design.  Each antenna's
mode function is, by default, the comb of its parallel guiding cores
(n_waveguides strips of waveguide_width inside the antenna footprint), which
reproduces the simulated free-space coupling budget of the reference
hardware; a plain top-hat over the full antenna width is available as an
alternative profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from qpasim.gaussian import _integer, _real

MODE_PROFILES = ("comb", "tophat")


@dataclass(frozen=True)
class ApertureGeometry:
    """Linear antenna array geometry; frozen: counts are integers >= 1, lengths and the fwhm finite and positive.

    The pitch is at least the antenna width, ``mode_profile`` is in ``MODE_PROFILES`` and a comb's strips fit in the
    antenna.  2e3 pi / DBL_MAX <= wavelength_nm < inf keeps the wavenumber finite, and 0 <= insertion_loss_db <
    20 log10(DBL_MAX), about 6165.09 dB, the de-embedding factor 10^(IL/20).  The phase span wavenumber *
    aperture_halfwidth_um is finite, so every tilt k x_j sin(theta) is, and aperture_halfwidth_um is at most 2^50 strip
    widths (waveguide width for a comb, antenna width for a top-hat): rounding a strip's edges, each by at most 2^-53
    of their size, leaves the strip at least 3/4 of its width.
    """

    n_antennas: int = 32
    pitch_um: float = 17.5
    antenna_width_um: float = 16.7
    wavelength_nm: float = 1550.0
    insertion_loss_db: float = 3.78
    element_pattern_fwhm_deg: float = 2.7
    mode_profile: str = "comb"
    n_waveguides: int = 16
    waveguide_width_um: float = 0.82

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not _integer(self.n_antennas, "n_antennas") >= 1:
            raise ValueError("n_antennas must be >= 1")
        for name in ("pitch_um", "antenna_width_um", "element_pattern_fwhm_deg", "waveguide_width_um"):
            if not 0 < _real(getattr(self, name), name) < np.inf:
                raise ValueError("%s must be finite and positive" % name)
        if not 2e3 * np.pi / np.finfo(float).max <= _real(self.wavelength_nm, "wavelength_nm") < np.inf:
            raise ValueError("wavelength_nm must be finite with a finite wavenumber: 2e3 pi / DBL_MAX <= wavelength_nm")
        if not 0 <= _real(self.insertion_loss_db, "insertion_loss_db") < 20 * np.log10(np.finfo(float).max):
            raise ValueError("insertion_loss_db must be >= 0 with a finite 10^(IL/20): IL < 20 log10(DBL_MAX)")
        if not self.pitch_um >= self.antenna_width_um:
            raise ValueError("pitch must be at least the antenna width")
        if self.mode_profile not in MODE_PROFILES:
            raise ValueError("mode_profile must be one of %s" % (MODE_PROFILES,))
        if self.mode_profile == "comb":
            if not _integer(self.n_waveguides, "n_waveguides") >= 1:
                raise ValueError("n_waveguides must be >= 1")
            if not self.n_waveguides * self.waveguide_width_um <= self.antenna_width_um + 1e-12:
                raise ValueError("waveguides do not fit inside the antenna width")
        strip = self.antenna_width_um if self.mode_profile == "tophat" else self.waveguide_width_um
        with np.errstate(over="ignore"):
            if not self.wavenumber * self.aperture_halfwidth_um < np.inf:
                raise ValueError("wavelength_nm too short: wavenumber * aperture_halfwidth_um must be finite")
            if not self.aperture_halfwidth_um <= 2.0**50 * strip:
                raise ValueError("aperture_halfwidth_um must be at most 2^50 strip widths, or strip edges merge")

    @property
    def wavenumber(self) -> float:
        return 2 * np.pi / (self.wavelength_nm * 1e-3)

    @property
    def antenna_centers_um(self) -> np.ndarray:
        return (np.arange(self.n_antennas) - (self.n_antennas - 1) / 2) * self.pitch_um

    @property
    def aperture_halfwidth_um(self) -> float:
        return (self.n_antennas - 1) / 2 * self.pitch_um + self.antenna_width_um / 2

    def mode_segments(self, center_um: float | np.ndarray) -> np.ndarray:
        """(start, stop) pairs of the guiding strips of the antennas at ``center_um``.

        A scalar centre gives shape (n_strips, 2); centres of shape S give
        S + (n_strips, 2).
        """
        center = _real(center_um, "center_um")[..., np.newaxis]
        if self.mode_profile == "tophat":
            mids, half = center, self.antenna_width_um / 2
        else:
            sub = self.antenna_width_um / self.n_waveguides
            mids = center - self.antenna_width_um / 2 + sub * (np.arange(self.n_waveguides) + 0.5)
            half = self.waveguide_width_um / 2
        return np.stack([mids - half, mids + half], axis=-1)


@dataclass(frozen=True)
class BeamSpec:
    """Collimated Gaussian beam: 1/e^2 diameter in (0, sqrt(DBL_MAX)), its square finite; offset, incidence."""

    diameter_um: float = 200.0
    center_offset_um: float = 0.0
    incidence_angle_deg: float = 0.0

    def __post_init__(self):
        if not 0 < _real(self.diameter_um, "diameter_um") < np.sqrt(np.finfo(float).max):
            raise ValueError("beam diameter must be positive with a finite square: 0 < diameter_um < sqrt(DBL_MAX)")
        if not (np.isfinite(_real(self.center_offset_um, "center_offset_um"))
                and -90 < _real(self.incidence_angle_deg, "incidence_angle_deg") < 90):
            raise ValueError("beam offset must be finite and the incidence angle inside (-90, 90) degrees")

    @property
    def waist_um(self) -> float:
        """1/e^2 intensity radius; the amplitude profile is exp(-x^2/w^2)."""
        return self.diameter_um / 2


@dataclass(frozen=True)
class ChannelSettings:
    """Per-channel RF gains and net phases: 1-D, of one length, finite; gains >= 0 with DBL_MIN <= sum(gains**2) < inf.

    The power sum, not any(gains > 0), also rejects no gains and gains whose squares overflow, underflow to 0
    (1e-200) or are subnormal (3e-162), where they have lost precision: DBL_MIN is the smallest normal double.
    Frozen, and both arrays are copies, so the rule holds for the settings' whole life.
    """

    gains: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gains", _real(self.gains, "gains", copy=True))
        object.__setattr__(self, "phases", _real(self.phases, "phases", copy=True))
        if self.gains.shape != self.phases.shape or self.gains.ndim != 1:
            raise ValueError("gains and phases must be 1-D vectors of equal length")
        if not (np.all((self.gains >= 0) & (self.gains < np.inf)) and np.all(np.isfinite(self.phases))):
            raise ValueError("gains must be finite and >= 0, and phases finite")
        with np.errstate(over="ignore"):
            if not np.finfo(float).tiny <= np.sum(self.gains**2) < np.inf:
                raise ValueError("gains must carry finite, normal power: DBL_MIN <= sum(gains**2) < inf")

    @property
    def n_channels(self) -> int:
        return self.gains.size

    def complex_weights(self) -> np.ndarray:
        return self.gains * np.exp(1j * self.phases)


@dataclass(frozen=True)
class CouplingVector:
    """Complex per-antenna coupling amplitudes of the incident beam: a copied, non-empty 1-D vector, sum |c|^2 <= 1."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("couplings must be a non-empty 1-D vector")
        if not np.sum(np.abs(c) ** 2) <= 1.0 + 1e-9:
            raise ValueError("coupled power must be finite and must not exceed unity")
        object.__setattr__(self, "c", c)


def element_pattern(geometry: ApertureGeometry, theta_deg: float) -> float:
    """Single-antenna power envelope vs incidence angle.

    Smooth even Gaussian parametrized by its full width at half maximum:
    1 at normal incidence, 0.5 at +-fwhm/2.  Where (theta / fwhm)^2 overflows, as it does off axis for a
    tiny fwhm, the pattern is exactly 0, quietly.
    """
    theta = _real(theta_deg, "theta_deg")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta_deg must be finite")
    with np.errstate(over="ignore"):
        return np.exp(-4 * np.log(2) * (theta / geometry.element_pattern_fwhm_deg) ** 2)


# math.erf rather than scipy.special.erf: importing scipy takes several times
# longer than everything else a run sets up, for ~1000 strip edges per call
_erf = np.frompyfunc(math.erf, 1, 1)


def coupling_vector(geometry: ApertureGeometry, beam: BeamSpec) -> CouplingVector:
    """Complex coupling amplitude of the beam onto each antenna.

    c_j = sqrt(element_pattern(theta)) * 10^(-IL/20) * overlap_j
          * exp(i k x_j sin theta)

    where x_j is the antenna center and overlap_j the exact overlap of the
    unit-norm beam amplitude (2/pi)^(1/4) w^(-1/2) exp(-(x - x0)^2 / w^2)
    with the antenna's unit-norm strip mode (constant over its strips):

        overlap_j = (pi w^2 / 8)^(1/4) * sum_strips [erf((b - x0)/w) - erf((a - x0)/w)]
                    / sqrt(total strip width)

    The incidence-angle phase tilt is applied at the antenna centers; the
    per-element power rolloff is carried by the configured element pattern.
    """
    centers = geometry.antenna_centers_um
    if (
        beam.center_offset_um - 4 * beam.waist_um > geometry.aperture_halfwidth_um
        or beam.center_offset_um + 4 * beam.waist_um < -geometry.aperture_halfwidth_um
    ):
        warnings.warn("beam footprint misses the aperture; couplings are zero", stacklevel=2)
        return CouplingVector(c=np.zeros(geometry.n_antennas, dtype=complex))

    segments = geometry.mode_segments(centers)
    w = beam.waist_um
    # beam and geometry each own their bounds, but (edge - offset) / w may still overflow: erf(+-inf) = +-1 is exact
    with np.errstate(over="ignore"):
        cdf = _erf((segments - beam.center_offset_um) / w).astype(float)
    strips = np.sum(cdf[..., 1] - cdf[..., 0], axis=-1)
    widths = np.sum(segments[..., 1] - segments[..., 0], axis=-1)
    overlaps = (np.pi * w**2 / 8) ** 0.25 * strips / np.sqrt(widths)
    theta = np.deg2rad(beam.incidence_angle_deg)
    tilt = np.exp(1j * geometry.wavenumber * centers * np.sin(theta))
    amp = np.sqrt(element_pattern(geometry, beam.incidence_angle_deg))
    amp = amp * 10 ** (-geometry.insertion_loss_db / 20)
    return CouplingVector(c=amp * overlaps * tilt)


def deembed_insertion_loss(c: CouplingVector, geometry: ApertureGeometry) -> np.ndarray:
    """Coupling amplitudes with the antenna insertion loss removed."""
    return c.c * 10 ** (geometry.insertion_loss_db / 20)


def geometric_efficiency(c: CouplingVector, weights: ChannelSettings, geometry: ApertureGeometry) -> float:
    """Modal-overlap efficiency of the weighted, combined aperture.

    eta_geo = |sum_j g_j e^{i phi_j} c'_j|^2 / sum_j g_j^2 with the antenna
    insertion loss de-embedded from c (geometric and insertion losses are
    budgeted separately).  ``ChannelSettings`` guarantees sum_j g_j^2 > 0.
    """
    if weights.n_channels != c.c.size:
        raise ValueError("weights length must match the coupling vector")
    cp = deembed_insertion_loss(c, geometry)
    amp = np.sum(weights.complex_weights() * cp)
    return float(np.abs(amp) ** 2 / np.sum(weights.gains**2))


def geometric_loss(c: CouplingVector, weights: ChannelSettings, geometry: ApertureGeometry) -> float:
    """Geometric loss in dB of the weighted combination (insertion loss excluded); inf, quietly, if it is dark."""
    with np.errstate(divide="ignore"):
        return -10 * np.log10(geometric_efficiency(c, weights, geometry))


def matched_settings(c: CouplingVector, geometry: ApertureGeometry, amplitude_weights: bool = False) -> ChannelSettings:
    """Gain/phase profile maximizing the geometric efficiency.

    Phases conjugate the coupling phases; with ``amplitude_weights`` the gains follow |c'_j| (the Cauchy-Schwarz
    optimum), which ``ChannelSettings`` rejects for a dark beam, otherwise they are uniform.
    """
    cp = deembed_insertion_loss(c, geometry)
    gains = np.abs(cp) if amplitude_weights else np.ones(c.c.size)
    return ChannelSettings(gains=gains, phases=np.where(cp != 0, -np.angle(cp), 0.0))
