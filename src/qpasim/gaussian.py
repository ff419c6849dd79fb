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

Pure loss on one mode is the law at a diagonal S (sqrt(eta) on that mode's x
and p, 1 elsewhere), where S E S^T is the elementwise scaling s_i E_ij s_j.

All operations are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

VACUUM_VARIANCE = 0.25

# tolerances for state validation, relative to max(1, max|cov|)
_SYM_TOL = 1e-12
_PSD_TOL = 1e-9


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a float or anything else without ``__index__`` raises ValueError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError("%s must be an integer" % name)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    if not _integer(n_modes, "n_modes") >= 1:
        raise ValueError("n_modes must be >= 1")
    upper = np.diag(np.resize([1.0, 0.0], 2 * n_modes - 1), 1)
    return upper - upper.T


@lru_cache(maxsize=16)
def _i_omega_over_4(n_modes: int) -> np.ndarray:
    """Read-only i Omega / 4, the commutator term of the uncertainty relation."""
    out = 1j * VACUUM_VARIANCE * symplectic_form(n_modes)
    out.flags.writeable = False
    return out


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
        If the dimensions are inconsistent, the covariance is not symmetric
        within 1e-12 max(1, max|cov|), either contains a non-finite entry, or
        the uncertainty relation cov + (i/4) Omega >= 0 is violated: the
        smallest eigenvalue lies below -tol, tol = 1e-9 max(1, max|cov|).

    Notes
    -----
    The relation is certified by one Cholesky factorization of
    cov + (i/4) Omega + (tol/2) I.  Success proves the smallest eigenvalue
    exceeds -tol, because the factorization's backward error, about
    (2n)^2 eps max|cov| (1e-12 max|cov| at 32 modes), is far below tol/2.
    Only when it fails is the spectrum computed, and the decision rule is
    unchanged: reject when the smallest eigenvalue lies below -tol.
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
        # NaN and +-inf both fail big < inf, so big serves as the finiteness check of cov
        big = np.abs(cov).max()
        if not (big < np.inf and np.all(np.isfinite(mean))):
            raise ValueError("mean and covariance must be finite")
        # rounding in S (cov - I/4) S^T grows with |cov|, so both tolerances are relative
        sym_tol = _SYM_TOL * max(1.0, big)
        if np.max(np.abs(cov - cov.T)) > sym_tol:
            raise ValueError("covariance matrix is not symmetric within %g" % sym_tol)
        # entries above half the largest double overflow here; the max below rejects that inf
        with np.errstate(over="ignore"):
            cov = 0.5 * (cov + cov.T)
        big = np.abs(cov).max()
        if not big < np.inf:
            raise ValueError("mean and covariance must be finite")
        # uncertainty relation: cov + i*Omega/4 must be PSD ([x, p] = i/2)
        i_omega = _i_omega_over_4(mean.size // 2)
        tol = _PSD_TOL * max(1.0, big)
        shifted = cov + i_omega
        shifted.reshape(-1)[:: mean.size + 1] += 0.5 * tol
        try:
            # success proves min eig > -tol: Cholesky's backward error is far below tol/2
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = np.linalg.eigvalsh(cov + i_omega).min()
            if min_eig < -tol:
                raise ValueError("covariance violates the uncertainty relation (min eig %g)" % min_eig) from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SqueezedVacuumSpec:
    """Squeezing parameter r >= 0; the squeezed quadrature is x, and the LO phase sets the angle it is read at."""

    r: float

    def __post_init__(self):
        if not 0 <= self.r < np.inf:
            raise ValueError("squeezing parameter r must be finite and >= 0")


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, cov = identity/4."""
    if not _integer(n_modes, "n_modes") >= 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(
        mean=np.zeros(2 * n_modes),
        cov=VACUUM_VARIANCE * np.eye(2 * n_modes),
    )


def squeezed_vacuum(spec: SqueezedVacuumSpec) -> GaussianState:
    """Single-mode squeezed vacuum, cov = diag(e^{-2r}, e^{2r}) / 4, whose minimum variance is seen at LO phase 0.

    Squeezed along angle phi, it is this state through the phase shifter [[e^{i phi}]] of apply_linear_network.
    """
    cov = np.diag([np.exp(-2 * spec.r) * VACUUM_VARIANCE, np.exp(2 * spec.r) * VACUUM_VARIANCE])
    return GaussianState(mean=np.zeros(2), cov=cov)


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure loss of transmission eta on one mode: the module law at the diagonal S = diag(.., sqrt(eta), ..).

    With S diagonal, S (cov - I/4) S^T is the elementwise scaling s_i (cov - I/4)_ij s_j,
    evaluated in the order S @ E @ S.T multiplies, so the result equals
    ``apply_linear_network(state, diag(.., sqrt(eta), ..))`` bit for bit.  No passivity
    check is needed: with 0 <= eta <= 1 the largest singular value is exactly 1.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1], got %r" % (eta,))
    mode = _integer(mode, "mode")
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index %d out of range" % mode)
    s = np.ones(2 * state.n_modes)
    s[2 * mode : 2 * mode + 2] = np.sqrt(eta)
    eye = VACUUM_VARIANCE * np.eye(2 * state.n_modes)
    return GaussianState(mean=s * state.mean, cov=eye + (s[:, None] * (state.cov - eye)) * s)


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
