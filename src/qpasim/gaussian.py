"""Gaussian states and exact linear-optics transformations.

Quadrature ordering is (x1, p1, ..., xn, pn) and the vacuum quadrature
variance is 1/4.  The quadrature measured at local-oscillator phase theta is
X(theta) = cos(theta) x + sin(theta) p, so a lossy squeezed vacuum obeys

    Var(X(theta)) = eta/4 (e^{-2r} cos^2 th + e^{+2r} sin^2 th) + (1 - eta)/4

which every module in this package treats as the closed-form reference.  Its principal variances
(eta e^{-+2r} + (1 - eta)) / 4 are evaluated only in :func:`lossy_squeezed_variances`, where 1.0 - eta is exact
for eta >= 1/2 (Sterbenz's lemma), so at eta = 1 they are e^{-+2r} / 4 to the bit.
Every passive map (network, pure loss, RF combiner) is one law: any complex
m x n contraction T (singular values <= 1, any m) acts through its real embedding
S, and vacuum fills what T does not pass on, for m > n the m - n unused ports too,
as I - T T^dag >= 0 whatever m is (Weedbrook et al., RMP 84, 621 (2012)):

    mean' = S mean,    cov' = I/4 + S (cov - I/4) S^T

Pure loss on one mode is the law at a diagonal S (sqrt(eta) on that mode's x
and p, 1 elsewhere), where S E S^T is the elementwise scaling s_i E_ij s_j.

Every accepted state carries a floor: a proven lower bound on the smallest
eigenvalue of H = cov + (i/4) Omega, which the uncertainty relation keeps
above -tol.  A Cholesky factorization proves it when a state is constructed
(Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3; see
:class:`GaussianState`), and each map passes it on, because the law reads
H' = S H S^T + (I + i Omega)(I - S S^T)/4 and I + i Omega >= 0.  With g^2 the
largest squared singular value of T and N = 2n the input's size,

    loss:     floor' = min(floor, 0) - rho
    network:  floor' = g^2 min(floor, 0) - max(0, g^2 - 1)/2 - 3 gamma_N ||S||_F^2 N (max|cov| + 1/4) - rho

where gamma_N <= N eps bounds the rounding of the two products, whose inner
dimension is N for any m, and rho = 8 N' eps (max|cov'| + 1) + max|cov' - cov'^T|
that of the output and its symmetrization, N' = 2m the output's size.  A loss
output is symmetric bit for bit (see :func:`apply_loss`), so it is stored as it
is, with asym = 0 in rho.  A map's output is factorized only when floor' < -tol
of its own covariance, so a chain of passive maps pays for one factorization.

All operations are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.25

# tolerances for state validation, relative to max(1, max|cov|)
_SYM_TOL = 1e-12
_PSD_TOL = 1e-9
_EPS = np.finfo(float).eps


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a float or anything else without ``__index__`` raises ValueError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError("%s must be an integer" % name)


def _real(value, name: str, copy: bool = False) -> np.ndarray:
    """``value`` as a float array, copied if ``copy``; complex raises ValueError, as a cast drops the imaginary part."""
    array = np.asarray(value)
    if array.dtype.kind == "c":
        raise ValueError("%s must be real" % name)
    return np.array(array, dtype=float) if copy else np.asarray(array, dtype=float)


def _admit(state: GaussianState, mean, cov, floor: float, symmetric: bool = False) -> GaussianState:
    """Check ``mean`` and ``cov``, the one check of every state, and store them on ``state`` with their floor.

    ``floor`` bounds the smallest eigenvalue of cov + i Omega/4 for the exact map that made ``cov`` (the constructor
    passes -inf).  Less rho, the rounding of the output (module notes), it is stored if it clears -tol, and
    otherwise the factorization decides.  A map that makes ``cov`` and ``mean`` new float arrays, ``cov`` symmetric
    bit for bit and ``mean`` finite by construction, passes ``symmetric``: the map, not this check, then vouches for
    both, so both skip the real-value check, ``cov`` the asymmetry scan and symmetrized copy, ``mean`` its copy and
    finiteness scan, and asym = 0.
    """
    if not symmetric:
        mean, cov = _real(mean, "mean", copy=True), _real(cov, "cov")
    size = mean.size
    if mean.ndim != 1 or size % 2 != 0 or size == 0:
        raise ValueError("mean must be a vector of even, positive length")
    if cov.shape != (size, size):
        raise ValueError("cov shape %s does not match mean length %d" % (cov.shape, size))
    asym = 0.0
    if not symmetric:
        # entries above half the largest double overflow to inf, and inf - inf is NaN: the max below rejects both
        with np.errstate(over="ignore", invalid="ignore"):
            asym = np.abs(cov - cov.T).max()
            cov = 0.5 * (cov + cov.T)
    # NaN and +-inf both fail big < inf, so big is the one finiteness check of cov
    big = np.abs(cov).max()
    if not (big < np.inf and (symmetric or np.all(np.isfinite(mean)))):
        raise ValueError("mean and covariance must be finite")
    # rounding in S (cov - I/4) S^T grows with |cov|, so both tolerances are relative
    sym_tol = _SYM_TOL * max(1.0, big)
    if asym > sym_tol:
        raise ValueError("covariance matrix is not symmetric within %g" % sym_tol)
    tol = _PSD_TOL * max(1.0, big)
    floor -= 8 * size * _EPS * (big + 1.0) + asym
    if not floor >= -tol:
        floor = _factorized_floor(cov, tol)
    mean.flags.writeable = False
    cov.flags.writeable = False
    object.__setattr__(state, "mean", mean)
    object.__setattr__(state, "cov", cov)
    object.__setattr__(state, "_floor", floor)
    return state


def _factorized_floor(cov: np.ndarray, tol: float) -> float:
    """The floor that factorizing cov + i Omega/4 + (tol/2) I proves, or -inf if only the spectrum accepts it.

    Raises ValueError if the smallest eigenvalue of cov + i Omega/4 lies below -tol.
    """
    size = cov.shape[0]
    # uncertainty relation: cov + i*Omega/4 must be PSD ([x, p] = i/2); i/4 goes to (2k, 2k+1), -i/4 to (2k+1, 2k)
    herm = cov.astype(complex)
    flat = herm.reshape(-1)
    flat[1 :: 2 * size + 2] += 1j * VACUUM_VARIANCE
    flat[size :: 2 * size + 2] -= 1j * VACUUM_VARIANCE
    flat[:: size + 1] += 0.5 * tol
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        flat[:: size + 1] = cov.diagonal()
        min_eig = np.linalg.eigvalsh(herm).min()
        if min_eig < -tol:
            raise ValueError("covariance violates the uncertainty relation (min eig %g)" % min_eig) from None
        return -np.inf
    # Cholesky's backward error, 2 (N + 1) eps tr(A), is far below tol/2 (under 2e-12 max|cov| at 32 modes)
    return -0.5 * tol - 2 * (size + 1) * _EPS * flat[:: size + 1].real.sum()


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state.

    Parameters
    ----------
    mean : array_like, shape (2n,)
        First moments in (x1, p1, ..., xn, pn) ordering; stored as a read-only copy.
    cov : array_like, shape (2n, 2n)
        Symmetric covariance matrix in quadrature-variance units; stored read-only.

    Raises
    ------
    ValueError
        If the dimensions are inconsistent, either contains a non-finite
        entry, the covariance is not symmetric within 1e-12 max(1, max|cov|),
        or the uncertainty relation cov + (i/4) Omega >= 0 is violated: the
        smallest eigenvalue lies below -tol, tol = 1e-9 max(1, max|cov|).
        max|cov| is taken once, of the symmetrized covariance that is stored.

    Notes
    -----
    i/4 and -i/4 are written in place into a complex copy of cov, whose
    diagonal is shifted by tol/2: one Cholesky factorization of this
    A = cov + (i/4) Omega + (tol/2) I certifies the relation.  Only on failure
    is the exact diagonal put back and the spectrum computed; the rule is
    unchanged: reject when it lies below -tol.

    Every accepted state keeps a proven floor under the smallest eigenvalue
    of H = cov + (i/4) Omega, which is not a field.  A successful Cholesky
    factor L of the N x N matrix A satisfies L L* = A + dA with
    |dA| <= gamma_{N+1} |L| |L*| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.3), and ||L||_F^2 = tr(A), so the floor is
    -tol/2 - 2 (N + 1) eps tr(A); 2 (N + 1) eps, about 4 gamma_{N+1}, also
    covers complex arithmetic and the rounding of the shift.  A state that
    only the spectrum accepted has floor -inf.  :func:`apply_loss` and
    :func:`apply_linear_network` pass the floor on (see the module notes), and
    their output is factorized only when it no longer clears its own tol.  A
    constructed state starts from no floor, so input from outside the package
    is always factorized.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _admit(self, self.mean, self.cov, -np.inf)

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor, so their arrays are read-only and their floor proven
        return GaussianState, (self.mean, self.cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SqueezedVacuumSpec:
    """Squeezing parameter r; the squeezed quadrature is x, and the LO phase sets the angle it is read at.

    Rejects r unless 0 <= 2 r <= ln(DBL_MAX), about 709.78: above it e^{2r} overflows to inf.
    """

    r: float

    def __post_init__(self):
        if not 0 <= 2 * self.r <= np.log(np.finfo(float).max):
            raise ValueError("squeezing parameter r must be >= 0 with e^(2 r) finite: 2 r <= ln(DBL_MAX)")


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, cov = identity/4."""
    if not _integer(n_modes, "n_modes") >= 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(
        mean=np.zeros(2 * n_modes),
        cov=VACUUM_VARIANCE * np.eye(2 * n_modes),
    )


def squeezed_vacuum(spec: SqueezedVacuumSpec) -> GaussianState:
    """Single-mode squeezed vacuum, cov = diag(e^{-2r}, e^{2r}) / 4: the module's variance law at eta = 1.

    Its minimum variance is seen at LO phase 0; squeezed along phi, it passes [[e^{i phi}]] of apply_linear_network.
    """
    return GaussianState(mean=np.zeros(2), cov=np.diag(lossy_squeezed_variances(spec.r, 1.0)))


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure loss of transmission eta on one mode: the module law at the diagonal S = diag(.., sqrt(eta), ..).

    With S diagonal, S E S^T (E = cov - I/4) is the elementwise scaling (s_i E_ij) s_j, and s = 1 off the mode.
    So only the mode's two rows and columns are scaled by sqrt(eta), in the order S @ E @ S.T multiplies; every
    other entry c of the copy is rounded as the law rounds it: 0 + c off the diagonal, which turns -0.0 into +0.0,
    and 1/4 + (c - 1/4) on it, which is not always c (c = 1e-5).  The result equals
    ``apply_linear_network(state, diag(.., sqrt(eta), ..))`` bit for bit.  It is also symmetric bit for bit: the
    stored input is, and fl(fl(s_i E_ij) s_j) is symmetric whenever s_i = 1, s_j = 1 or s_i = s_j, so it is stored
    without symmetrization.  No passivity check is needed: with 0 <= eta <= 1 the largest singular value is
    exactly 1.  The output inherits the input's certificate, its floor less the rounding (see the module notes).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1], got %r" % (eta,))
    mode = _integer(mode, "mode")
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index %d out of range" % mode)
    t = np.sqrt(eta)
    band = slice(2 * mode, 2 * mode + 2)
    # E on the diagonal, (s_i E_ij) s_j on the mode's rows and columns, then I/4 + that: 0 + c off the diagonal
    cov = state.cov.copy()
    diagonal = cov.reshape(-1)[:: cov.shape[0] + 1]
    diagonal -= VACUUM_VARIANCE
    cov[band] *= t
    cov[:, band] *= t
    cov += 0.0
    diagonal += VACUUM_VARIANCE
    mean = state.mean.copy()
    mean[band] *= t
    # H' = S H S + (1 - s^2)(I + i Omega)/4 on the mode, and S^2 <= I (the rounded sqrt(eta) is at most 1): the
    # floor carries over at min(floor, 0)
    return _admit(object.__new__(GaussianState), mean, cov, min(state._floor, 0.0), symmetric=True)


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
    """Transform mode operators by any complex m x n contraction (the module law); the output has m modes.

    m < n discards modes, and m > n adds m - n in vacuum, as the m x 1
    coupling column of :mod:`qpasim.chain` spreads one source mode over m
    antennas.  Rows may have norm below one; the norm deficit is filled with
    vacuum noise, which is exactly how imperfect modal overlap admixes
    spurious vacuum.

    The output inherits the input's certificate: its floor, scaled by the
    largest squared singular value and less the gain above 1 and the rounding
    (see the module notes), so it is factorized only when that no longer
    clears its tol.

    Raises
    ------
    ValueError
        If the columns do not match the state's modes, the matrix has no rows or
        a non-finite entry, or it amplifies (largest singular value above 1),
        which no passive network can do.
    """
    t = np.atleast_2d(np.asarray(matrix, dtype=complex))
    m, n = t.shape
    if n != state.n_modes:
        raise ValueError("matrix has %d columns but state has %d modes" % (n, state.n_modes))
    if m == 0:
        raise ValueError("matrix must output at least one mode")
    # the finite check runs first: an SVD of a non-finite matrix does not converge
    gain_sq = np.linalg.svd(t, compute_uv=False)[0] ** 2 if np.all(np.isfinite(t)) else np.inf
    if not gain_sq <= 1.0 + 1e-9:
        raise ValueError("matrix must be finite and must not amplify (largest singular value <= 1)")
    s = _real_embedding(t)
    excess = state.cov - VACUUM_VARIANCE * np.eye(2 * n)
    cov = VACUUM_VARIANCE * np.eye(2 * m) + s @ excess @ s.T
    floor = min(state._floor, 0.0)
    if floor > -np.inf:  # -inf stays -inf, also through the zero matrix, where 0 * -inf would be NaN
        # H' = S H S^T + (I + i Omega)(I - S S^T)/4, whose second term is >= -max(0, gain_sq - 1)/2; the two
        # products round by at most 3 gamma_N ||S||_F^2 N (max|cov| + 1/4), gamma_N <= N eps, ||S||_F^2 = 2 ||T||_F^2
        size = 2 * n
        rounding = 6 * size * size * _EPS * np.vdot(t, t).real * (np.abs(state.cov).max() + VACUUM_VARIANCE)
        floor = gain_sq * floor - 0.5 * max(0.0, gain_sq - 1.0) - rounding
    return _admit(object.__new__(GaussianState), s @ state.mean, cov, floor)


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
    """Principal (min, max) variances of a squeezed vacuum seen at efficiency eta: the one evaluation of the law."""
    SqueezedVacuumSpec(r)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    v_min = (eta * np.exp(-2 * r) + (1.0 - eta)) * VACUUM_VARIANCE
    v_max = (eta * np.exp(2 * r) + (1.0 - eta)) * VACUUM_VARIANCE
    return v_min, v_max
