"""Gaussian states and exact linear-optics transformations.

Quadrature ordering is (x1, p1, ..., xn, pn) and the vacuum quadrature
variance is 1/4.  The quadrature measured at local-oscillator phase theta is
X(theta) = cos(theta) x + sin(theta) p, so a lossy squeezed vacuum obeys

    Var(X(theta)) = eta/4 (e^{-2r} cos^2 th + e^{+2r} sin^2 th) + (1 - eta)/4

which every module in this package treats as the closed-form reference.
Every passive map (network, pure loss, RF combiner) is one law: a complex
m x n matrix T with singular values <= 1 acts through its real embedding S, and
vacuum fills what T does not pass on (Weedbrook et al., RMP 84, 621 (2012)):

    mean' = S mean,    cov' = I/4 + S (cov - I/4) S^T

All operations are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.25

# tolerances for state validation
_SYM_TOL = 1e-12
_PSD_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    upper = np.diag(np.resize([1.0, 0.0], 2 * n_modes - 1), 1)
    return upper - upper.T


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state.

    Parameters
    ----------
    mean : array_like, shape (2n,)
        First moments in (x1, p1, ..., xn, pn) ordering.
    cov : array_like, shape (2n, 2n)
        Symmetric covariance matrix in quadrature-variance units.

    Raises
    ------
    ValueError
        If the dimensions are inconsistent, the covariance is not symmetric,
        either contains a non-finite entry, or the uncertainty relation
        cov + (i/4) Omega >= 0 is violated.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a vector of even, positive length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov shape %s does not match mean length %d" % (cov.shape, mean.size))
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > _SYM_TOL:
            raise ValueError("covariance matrix is not symmetric within %g" % _SYM_TOL)
        cov = 0.5 * (cov + cov.T)
        n = mean.size // 2
        # uncertainty relation: cov + i*Omega/4 must be PSD ([x, p] = i/2)
        herm = cov + 1j * VACUUM_VARIANCE * symplectic_form(n)
        min_eig = np.linalg.eigvalsh(herm).min()
        if min_eig < -_PSD_TOL * max(1.0, np.abs(cov).max()):
            raise ValueError("covariance violates the uncertainty relation (min eig %g)" % min_eig)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SqueezedVacuumSpec:
    """Squeezing parameter r >= 0 and squeezing angle theta (mod pi)."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not (0 <= self.r < np.inf and np.isfinite(self.theta)):
            raise ValueError("squeezing parameter r must be finite and >= 0, and theta finite")
        object.__setattr__(self, "theta", float(self.theta) % np.pi)


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, cov = identity/4."""
    if not n_modes >= 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(
        mean=np.zeros(2 * n_modes),
        cov=VACUUM_VARIANCE * np.eye(2 * n_modes),
    )


def squeezed_vacuum(spec: SqueezedVacuumSpec) -> GaussianState:
    """Single-mode squeezed vacuum with principal variances e^{-+2r}/4.

    The squeezed principal axis points along phase-space angle ``spec.theta``,
    so the minimum variance is observed at LO phase theta.
    """
    cov = _principal_cov(np.exp(-2 * spec.r) * VACUUM_VARIANCE, np.exp(2 * spec.r) * VACUUM_VARIANCE, spec.theta)
    return GaussianState(mean=np.zeros(2), cov=cov)


def _principal_cov(v_min: float, v_max: float, theta: float) -> np.ndarray:
    """2x2 covariance with variance v_min along phase-space angle theta and v_max across it."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([v_min, v_max]) @ rot.T


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure loss of transmission eta on one mode: the module law at T = diag(.., sqrt(eta), ..)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1], got %r" % (eta,))
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index %d out of range" % mode)
    scale = np.ones(state.n_modes)
    scale[mode] = np.sqrt(eta)
    return apply_linear_network(state, np.diag(scale))


def _real_embedding(matrix: np.ndarray) -> np.ndarray:
    """Real 2m x 2n representation of a complex m x n mode transformation."""
    m, n = matrix.shape
    out = np.zeros((2 * m, 2 * n))
    out[0::2, 0::2] = matrix.real
    out[0::2, 1::2] = -matrix.imag
    out[1::2, 0::2] = matrix.imag
    out[1::2, 1::2] = matrix.real
    return out


def apply_linear_network(state: GaussianState, matrix: np.ndarray) -> GaussianState:
    """Transform mode operators by a (sub-)unitary complex matrix (the module law).

    ``matrix`` may be rectangular (m x n with m <= n), in which case the
    output state has m modes.  Rows may have norm below one; the norm deficit
    is filled with vacuum noise, which is exactly how imperfect modal overlap
    admixes spurious vacuum.

    Raises
    ------
    ValueError
        On dimension mismatch, a non-finite entry, or if the matrix amplifies
        (largest singular value above 1), which no passive network can do.
    """
    t = np.atleast_2d(np.asarray(matrix, dtype=complex))
    m, n = t.shape
    if n != state.n_modes:
        raise ValueError("matrix has %d columns but state has %d modes" % (n, state.n_modes))
    if m > n:
        raise ValueError("matrix cannot output more modes than it consumes")
    # the finite check runs first: an SVD of a non-finite matrix does not converge
    if not np.all(np.isfinite(t)) or np.linalg.svd(t, compute_uv=False)[0] ** 2 > 1.0 + 1e-9:
        raise ValueError("matrix must be finite and must not amplify (largest singular value <= 1)")
    s = _real_embedding(t)
    excess = state.cov - VACUUM_VARIANCE * np.eye(2 * n)
    cov = VACUUM_VARIANCE * np.eye(2 * m) + s @ excess @ s.T
    return GaussianState(mean=s @ state.mean, cov=cov)


def quadrature_variance(state: GaussianState, weights: np.ndarray, theta: float) -> float:
    """Variance of the theta-quadrature of the weighted mode sum_j w_j a_j.

    ``weights`` must have norm <= 1; any norm deficit is admixed vacuum (the
    module law, applied by :func:`apply_linear_network`), so the result is the
    physical homodyne variance.
    """
    w = np.asarray(weights, dtype=complex)
    if np.sum(np.abs(w) ** 2) == 0.0:
        raise ValueError("weight vector must not be zero")
    return float(apply_linear_network(state, (w * np.exp(-1j * theta))[np.newaxis, :]).cov[0, 0])


def lossy_squeezed_variances(r: float, eta: float) -> tuple[float, float]:
    """Principal (min, max) variances of a squeezed vacuum seen at efficiency eta."""
    SqueezedVacuumSpec(r)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    v_min = (eta * np.exp(-2 * r) + 1.0 - eta) * VACUUM_VARIANCE
    v_max = (eta * np.exp(2 * r) + 1.0 - eta) * VACUUM_VARIANCE
    return v_min, v_max


def wigner_density(r: float, theta: float, eta: float, x, p):
    """Wigner function of a lossy squeezed vacuum evaluated at (x, p).

    A bivariate Gaussian whose principal variances follow the lossy squeezed
    variance law along axes rotated by ``theta``.  Broadcasts over x and p.
    """
    SqueezedVacuumSpec(r, theta)
    cov = _principal_cov(*lossy_squeezed_variances(r, eta), theta)
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    quad = inv[0, 0] * x**2 + 2 * inv[0, 1] * x * p + inv[1, 1] * p**2
    return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))


def wigner_halfmax_axes(r: float, theta: float, eta: float) -> tuple[float, float, float]:
    """Half-maximum contour of the Wigner function.

    Returns (minor semi-axis, major semi-axis, orientation) where the minor
    axis points along phase-space angle ``theta``.
    """
    SqueezedVacuumSpec(r, theta)
    v_min, v_max = lossy_squeezed_variances(r, eta)
    scale = np.sqrt(2 * np.log(2))
    return scale * np.sqrt(v_min), scale * np.sqrt(v_max), theta
