"""Collocation solver and steepness continuation.

The free surface p = 0 must satisfy the Bernoulli condition
2 (E - g h) (h_q^2 + h_p^2) = 1. Substituting the truncated series of
`wave_model` and collocating at the N+1 angles theta_j = j pi / N turns this
into N+1 polynomial equations in the unknowns (a_1..a_N, c, E); the system is
closed by prescribing the steepness. The surface sums at the collocation
angles come from one real FFT.

The system is solved by inexact Newton. Each iteration solves J delta = -r
by flexible GMRES with J.v taken matrix-free from the same FFTs; the step is
accepted once ||J delta + r||_2 <= 1e-3 ||r||_2. The right preconditioner is
chosen in this order:

1. a single-precision copy of the LU factors of the last dense Jacobian,
   when factors of order N+2 are held;
2. when no factors at all are held and N >= 256, a Fourier multiplier: the
   constant-coefficient model of J, diagonal in cosine space on the mode
   columns, applied by one real FFT without any N^2 array;
3. neither, or GMRES misses the forcing test within 20 iterations: the
   analytic Jacobian is built and factored at the current iterate, the step
   is the direct LU solve in double precision, and its factors are held.

All three linearize through one function, `_weights`: J.v weights the
surface sums of v, the Fourier model averages the weights, and the dense
Jacobian is the matrix of J.v, its columns the weighted surface sums of
blocks of unit vectors, so the solver keeps no cosine or sine tables.

The dense path stays because the Fourier model alone is a weak
preconditioner near the limiting wave, where GMRES then needs many times the
iterations. From N = 256 a solve that holds no factors skips the dense J and
LU (4 ms at N = 256, 16 ms at N = 512, one BLAS thread) and the SciPy import
that the first dense step pays; a Fourier build and apply cost about 0.2 ms
and 0.04 ms there. Below N = 256 the dense step is cheap: `estimate_limit`
and a default continuation take it at their 128-mode start and hold LU
factors from then on, so their results keep their bits. A continuation in
steepness walks the family from the linear regime toward the limiting wave,
carrying the factors from member to member: each target is solved once,
from a secant-predicted guess or else from the previous member; the step is
halved on a failed solve and the mode count doubled when the coefficient
tail stops being resolved.

Only the dense step and the held factors need LAPACK beyond NumPy (`lange`,
`lu_factor`, `gecon`, `lu_solve`, `getrs`); GMRES solves its small
triangular system by back-substitution in NumPy. So SciPy is imported when
the first dense step runs, not with this module. Importing `scipy.linalg`
costs a fresh process about 0.3 s and 28 MB (one BLAS thread, 2-core VM),
which `verify`, `fields` and solves that stay on held factors or on the
Fourier path no longer pay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .wave_model import (
    TAIL_DECAY_RATIO,
    ConformalSolution,
    InvalidConfig,
    WaveConfig,
    steepness,
    crest_indicator,
    tail_ratio,
)

__all__ = [
    "SolverError",
    "NonConvergence",
    "SingularJacobian",
    "TailNotResolved",
    "collocation_angles",
    "residual_vector",
    "jacobian",
    "midpoint_residual",
    "initial_guess",
    "newton_solve",
    "FamilyMember",
    "ContinuationFamily",
    "continue_family",
    "LimitEstimate",
    "estimate_limit",
]

_RCOND_FLOOR = 1e-14
_MAX_DAMPINGS = 8
_FORCING = 1e-3  # a Krylov step must cut ||J delta + r||_2 by this factor
_KRYLOV_MAX = 20  # GMRES iterations before the preconditioner is refreshed
_FOURIER_MIN_MODES = 256  # N from which a solve without factors tries Fourier
_JAC_BLOCK_COLS = 16  # unit vectors per FFT batch of `jacobian`
_MIN_STEP = 1e-5  # continuation step floor
_S_CEILING = 0.2  # `estimate_limit` target, above any attainable steepness


class SolverError(RuntimeError):
    """Base class for solver failures."""


class NonConvergence(SolverError):
    def __init__(self, message: str, iterations: int = 0, residual: float = np.inf):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SingularJacobian(SolverError):
    """Jacobian factorization failed or its condition estimate blew up."""


class TailNotResolved(SolverError):
    """Newton converged but the coefficient tail violates the decay bound.

    Carries the converged (under-resolved) solution so a caller can zero-pad
    it as the warm start after doubling the mode count.
    """

    def __init__(self, message: str, tail: float, solution: ConformalSolution):
        super().__init__(message)
        self.tail = tail
        self.solution = solution


def collocation_angles(n: int) -> np.ndarray:
    """The N+1 surface angles theta_j = j pi / N, crest to trough."""
    return np.linspace(0.0, np.pi, n + 1)


def _surface_sums(a: np.ndarray, m: int):
    """Surface sums at theta_j = j pi / m, j = 0..m: h, A = c|h_q| factor
    and B, in terms of which S = A^2 + (1+B)^2 = c^2 (h_q^2 + h_p^2).

    One real FFT of length 2m: sum_k x_k e^{-ik theta_j} for x = a and k a,
    whose real parts are h and B and whose imaginary part is -A. The last
    axis of a holds a_1..a_N; leading axes batch coefficient vectors, and
    each gets the bits it gets alone.
    """
    n = a.shape[-1]
    series = np.zeros((2,) + a.shape[:-1] + (n + 1,))  # k = 0 mode absent
    series[0, ..., 1:] = a
    series[1, ..., 1:] = np.arange(1.0, n + 1.0) * a
    sums = np.fft.rfft(series, n=2 * m)
    return sums[0].real, -sums[1].imag, sums[1].real


def _grid_defect(sol: ConformalSolution, m: int) -> np.ndarray:
    """The Bernoulli defect 2 (E - g h) S / c^2 - 1 at the m+1 angles
    theta_j = j pi / m."""
    h, A, B = _surface_sums(sol.coeffs, m)
    S = A * A + (1.0 + B) ** 2
    return 2.0 * (sol.E - sol.gravity * h) * S / sol.c**2 - 1.0


def residual_vector(sol: ConformalSolution, s_target: float) -> np.ndarray:
    """N+2 residuals: the surface condition at each collocation angle,
    then the steepness constraint."""
    n = sol.mode_count
    r = np.empty(n + 2)
    r[: n + 1] = _grid_defect(sol, n)
    r[n + 1] = steepness(sol) - s_target
    return r


def jacobian(sol: ConformalSolution, s_target: float) -> np.ndarray:
    """Analytic Jacobian of `residual_vector` in (a_1..a_N, c, E).

    The matrix of `_jvp_operator`: the mode columns are the `_weights` of
    sol applied to the surface sums of a block of unit vectors at a time,
    so column k is J e_k of the matrix-free product bit for bit.
    Fortran-ordered, so LAPACK factors it without a copy.
    """
    n = sol.mode_count
    w_h, w_A, w_B, w_c, w_E = _weights(sol)
    J = np.zeros((n + 2, n + 2), order="F")
    for k0 in range(0, n, _JAC_BLOCK_COLS):
        blk = slice(k0, min(k0 + _JAC_BLOCK_COLS, n))
        dh, dA, dB = _surface_sums(np.eye(blk.stop - k0, n, k0), n)
        J[: n + 1, blk] = (w_h * dh + w_A * dA + w_B * dB).T
    J[: n + 1, n] = w_c
    J[: n + 1, n + 1] = w_E
    # Steepness row: only odd modes move the crest-to-trough height.
    J[n + 1, 0:n:2] = 1.0 / np.pi
    return J


def _weights(sol: ConformalSolution):
    """(w_h, w_A, w_B, w_c, w_E): the Jacobian of `residual_vector` at sol
    on the collocation rows, J d = w_h dh + w_A dA + w_B dB + w_c d_c
    + w_E d_E, where dh, dA and dB are the surface sums of d_a.

    The surface sums are linear in the coefficients, and dS = 2 A dA
    + 2 (1+B) dB. The weights depend on sol alone, so a Newton iterate takes
    them once, for all the products of a GMRES solve and for its
    preconditioner.
    """
    n = sol.mode_count
    c, E, g = sol.c, sol.E, sol.gravity
    h, A, B = _surface_sums(sol.coeffs, n)
    S = A * A + (1.0 + B) ** 2
    excess = E - g * h
    return (-2.0 * g / c**2 * S,
            4.0 / c**2 * excess * A,
            4.0 / c**2 * excess * (1.0 + B),
            -4.0 / c**3 * excess * S,
            2.0 / c**2 * S)


def _jvp_operator(sol: ConformalSolution, weights=None):
    """d -> J d for the Jacobian of `residual_vector` at sol, without
    forming J, from the `_weights` of sol (taken here if not given)."""
    n = sol.mode_count
    w_h, w_A, w_B, w_c, w_E = _weights(sol) if weights is None else weights

    def jv(d: np.ndarray) -> np.ndarray:
        dh, dA, dB = _surface_sums(d[:n], n)
        out = np.empty(n + 2)
        out[: n + 1] = (w_h * dh + w_A * dA + w_B * dB
                        + w_c * d[n] + w_E * d[n + 1])
        out[n + 1] = d[0:n:2].sum() / np.pi
        return out

    return jv


def _cosine_coeffs(x: np.ndarray) -> np.ndarray:
    """Coefficients x^_0..x^_m, along the last axis, of the cosine
    interpolant x_j = sum_k x^_k cos(k theta_j) of values at theta_j =
    j pi / m: the DCT-I divided by m with the first and last coefficients
    halved, taken as one real FFT of the even extension."""
    m = x.shape[-1] - 1
    even = np.concatenate([x, x[..., -2:0:-1]], axis=-1)
    xh = np.fft.rfft(even).real / m
    xh[..., [0, m]] *= 0.5
    return xh


def _fourier_preconditioner(weights):
    """v -> M^-1 v for the constant-coefficient model M of the Jacobian
    with these `_weights`, or None if M is singular or not finite.

    M keeps the c and E columns and the steepness row of J exactly. On the
    mode columns it replaces w_h and w_B by their trapezoid means and drops
    w_A, so that in cosine space (`_cosine_coeffs` of the collocation rows)
    mode k only moves coefficient k, by m_k = mean(w_h) + k mean(w_B)
    (Yang, J. Comput. Phys. 228, 2009). Modes 0 and 1 and the steepness row
    give three equations for (d_1, d_c, d_E); m_1 is not divided by, since
    it vanishes on the flat stream. Then d_k = (r^_k - w^_c,k d_c
    - w^_E,k d_E) / m_k for k >= 2. One application is one real FFT of
    length 2N and O(N) work.
    """
    w_h, _, w_B, w_c, w_E = weights
    n = w_h.size - 1
    hat_h, hat_b, wc, we = _cosine_coeffs(np.stack([w_h, w_B, w_c, w_E]))
    mean_h, mean_b = hat_h[0], hat_b[0]  # trapezoid means
    k = np.arange(2.0, n + 1.0)
    with np.errstate(all="ignore"):  # a model that is not finite declines
        inv_m = 1.0 / (mean_h + k * mean_b)
        odd = inv_m / np.pi  # steepness row eliminated over k >= 2 ...
        odd[0::2] = 0.0  # ... where only odd k enter
        model = np.array([
            [0.0, wc[0], we[0]],
            [mean_h + mean_b, wc[1], we[1]],
            [1.0 / np.pi, -odd @ wc[2:], -odd @ we[2:]],
        ])
        try:
            inv3 = np.linalg.inv(model)
        except np.linalg.LinAlgError:  # exactly singular
            return None
    # Any entry of the weights that is not finite reaches inv3 through
    # inv_m or through the sums over odd, whose zeros do not mask it.
    if not (np.all(np.isfinite(inv_m)) and np.all(np.isfinite(inv3))):
        return None
    wc, we = wc[2:], we[2:]

    def apply(v: np.ndarray) -> np.ndarray:
        rh = _cosine_coeffs(v[: n + 1])
        d1, dc, de = inv3 @ (rh[0], rh[1], v[n + 1] - odd @ rh[2:])
        out = np.empty(n + 2)
        out[0] = d1
        out[1:n] = (rh[2:] - dc * wc - de * we) * inv_m
        out[n], out[n + 1] = dc, de
        return out

    return apply


def get_lapack_funcs(names, arrays=()):
    """`scipy.linalg.get_lapack_funcs`, importing SciPy on the first call
    rather than with this module. The dense step looks up `lange` here
    before it factors, so a timing of `lu_factor` does not include the
    import."""
    from scipy.linalg import get_lapack_funcs as lookup

    return lookup(names, arrays)


def lu_factor(a, overwrite_a=False, check_finite=True):
    """`scipy.linalg.lu_factor`; SciPy is loaded by then (`get_lapack_funcs`)."""
    from scipy.linalg import lu_factor as factor

    return factor(a, overwrite_a=overwrite_a, check_finite=check_finite)


def _lu_preconditioner(lu_piv):
    """v -> M^-1 v for the LU factors `lu_piv` of a nearby Jacobian, in the
    precision they are held in."""
    lu, piv = lu_piv
    (getrs,) = get_lapack_funcs(("getrs",), (lu,))

    def apply(v: np.ndarray) -> np.ndarray:
        z, _ = getrs(lu, piv, v.astype(lu.dtype), overwrite_b=True)
        return z

    return apply


def _back_substitute(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    """y with R y = g for an upper-triangular R, written over g.

    From the last row up, y_i = (g_i - R_i,i+1: . y_i+1:) / R_ii. On the
    systems GMRES forms this gives the bits of LAPACK's trtrs
    (`scipy.linalg.solve_triangular`), which `np.linalg.solve` does not.
    """
    for i in range(g.size - 1, -1, -1):
        g[i] = (g[i] - R[i, i + 1 :] @ g[i + 1 :]) / R[i, i]
    return g


def _gmres(sol: ConformalSolution, r: np.ndarray, precond, bases,
           weights=None) -> np.ndarray | None:
    """Newton step delta with ||J delta + r||_2 <= _FORCING ||r||_2, or None.

    Flexible GMRES (Saad, SIAM J. Sci. Comput. 14, 1993) from delta = 0,
    right-preconditioned by the callable ``precond`` (`_lu_preconditioner`
    or `_fourier_preconditioner`), with J.v from `_jvp_operator` at sol
    and ``weights``: at most _KRYLOV_MAX iterations, no restart. The
    preconditioned directions z_j = M^-1 v_j are kept and delta = Z y, so
    the forcing test holds for the returned step although a single-precision
    M is not exactly linear, and no final solve with M is needed. The
    Arnoldi basis is orthogonalized by classical Gram-Schmidt, twice, and
    the least-squares residual is tracked by Givens rotations. ``bases`` is
    the pair (V, Z) of arrays of shape (_KRYLOV_MAX + 1, r.size) and
    (_KRYLOV_MAX, r.size) that receive the two bases; their prior contents
    are never read.
    """
    jv = _jvp_operator(sol, weights)
    beta = float(np.linalg.norm(r))
    m = _KRYLOV_MAX
    V, Z = bases
    R = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
    rot = np.zeros((m, 2))  # (cos, sin) of each Givens rotation
    g = np.zeros(m + 1)
    g[0] = beta
    np.divide(r, -beta, out=V[0])
    for j in range(m):
        Z[j] = precond(V[j])
        w = jv(Z[j])
        col = R[: j + 1, j]
        for _ in range(2):
            hj = V[: j + 1] @ w
            w -= hj @ V[: j + 1]
            col += hj
        h_next = float(np.linalg.norm(w))
        if not np.isfinite(h_next):
            return None
        for i, (ci, si) in enumerate(rot[:j]):
            col[i], col[i + 1] = (ci * col[i] + si * col[i + 1],
                                  ci * col[i + 1] - si * col[i])
        rho = float(np.hypot(col[j], h_next))
        if rho == 0.0:
            return None
        rot[j] = col[j] / rho, h_next / rho
        col[j] = rho
        g[j + 1] = -rot[j, 1] * g[j]
        g[j] *= rot[j, 0]
        if abs(g[j + 1]) <= _FORCING * beta:
            y = _back_substitute(R[: j + 1, : j + 1], g[: j + 1])
            return y @ Z[: j + 1]
        V[j + 1] = w / h_next
    return None


@dataclass
class _Factors:
    """Mutable holder of the LU factors that precondition Newton's GMRES;
    a solve reads them and refreshes them in place."""

    lu: tuple | None = None  # (lu, piv) of an (N+2)x(N+2) Jacobian, lu float32


def _vector(sol: ConformalSolution) -> np.ndarray:
    """Newton's unknowns (a_1..a_N, c, E) of a wave."""
    return np.concatenate([sol.coeffs, [sol.c, sol.E]])


def _solution(u: np.ndarray, gravity: float,
              surface_pressure: float) -> ConformalSolution | None:
    """Wave of unknowns u = (a, c, E); None if u is not finite or c <= 0."""
    if not np.all(np.isfinite(u)) or u[-2] <= 0.0:
        return None
    return ConformalSolution(c=float(u[-2]), E=float(u[-1]), coeffs=u[:-2],
                             gravity=gravity, surface_pressure=surface_pressure)


def midpoint_residual(sol: ConformalSolution) -> float:
    """Largest Bernoulli defect halfway between collocation angles.

    Aliasing probe: the collocation residual is ~newton_tol by construction,
    while between the angles it is governed by the unresolved tail. The
    midpoints are the odd points of the 2N-interval grid theta_m = m pi / (2N).
    """
    return float(np.abs(_grid_defect(sol, 2 * sol.mode_count)[1::2]).max())


def initial_guess(s0: float, cfg: WaveConfig) -> ConformalSolution:
    """Linear-theory wave: one cosine mode of amplitude pi*s0.

    Valid only in the small-steepness regime (s0 <= 0.02); beyond that the
    linearization error is too large to seed Newton reliably.
    """
    if not 0.0 <= s0 <= 0.02:
        raise ValueError("linear initial guess requires 0 <= s0 <= 0.02")
    a = np.zeros(cfg.mode_count)
    if s0 > 0.0:
        a[0] = np.pi * s0
    return ConformalSolution(
        c=float(np.sqrt(cfg.gravity)),
        E=0.5 * cfg.gravity,
        coeffs=a,
        gravity=cfg.gravity,
        surface_pressure=cfg.surface_pressure,
    )


def _linf(r: np.ndarray) -> float:
    return float(np.abs(r).max())


def _rcond(lu: np.ndarray, anorm: float) -> float:
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        return 0.0
    return float(rcond)


def _direct_step(sol: ConformalSolution, s_target: float, r: np.ndarray,
                 held: _Factors) -> np.ndarray:
    """The Newton step -J^-1 r with J built and LU factored at sol.

    Raises SingularJacobian if J has a non-finite entry or its condition
    estimate falls below the floor. Otherwise ``held`` is refreshed with a
    single-precision copy of the factors: GMRES needs the preconditioner to
    a few digits only, and each of its iterations then streams half the
    bytes. The double-precision factors die with this call.
    """
    J = jacobian(sol, s_target)
    # 1-norm for the condition estimator. It is non-finite exactly when an
    # entry is, which spares LU its own finiteness scan; J is built for this
    # factorization only, so LU may factor it in place.
    (lange,) = get_lapack_funcs(("lange",), (J,))  # SciPy loads here
    anorm = float(lange("1", J))
    if not np.isfinite(anorm):
        raise SingularJacobian("Jacobian has non-finite entries")
    from scipy.linalg import LinAlgWarning, lu_solve

    # An exactly singular J only warns here; the rcond floor raises.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(J, overwrite_a=True, check_finite=False)
    if _rcond(lu, anorm) < _RCOND_FLOOR:
        raise SingularJacobian(
            f"Jacobian condition estimate below {_RCOND_FLOOR:g}")
    delta = lu_solve((lu, piv), -r)
    held.lu = lu.astype(np.float32), piv
    return delta


def newton_solve(
    guess: ConformalSolution,
    s_target: float,
    cfg: WaveConfig,
    diagnostics: dict | None = None,
    tail_limit: float = TAIL_DECAY_RATIO,
    *,
    factors: _Factors | None = None,
) -> ConformalSolution:
    """Solve the collocated system at fixed steepness from a warm start.

    Damped inexact Newton: every iteration is one Newton step delta, halved
    (at most 8 times) until the max-norm residual decreases, and counts
    toward ``newton_max_iter`` and in ``diagnostics``. The step is first
    sought by flexible GMRES with J.v matrix-free, taken once ||J delta +
    r||_2 <= 1e-3 ||r||_2, and right-preconditioned by the LU factors held
    in ``factors`` if they are of order N+2, or else, if no factors at all
    are held and N >= 256, by the Fourier multiplier built at the current
    iterate. If neither applies, the Fourier model system is singular or
    not finite, or GMRES misses the forcing test within 20 iterations, the
    held factors are dropped, the analytic Jacobian is built and factored
    at the current iterate, delta is the direct solve with those factors,
    and the holder is refreshed with a single-precision copy of them. Held
    factors go first because near the limiting wave they need far fewer
    GMRES iterations than the Fourier model; below 256 modes a solve that
    holds no factors takes the dense step.
    ``factors`` is a `_Factors` holder that a caller such as
    `continue_family` passes to consecutive solves so that they share one
    factorization; None gives a holder local to this call.
    Convergence is checked before the first step, so an exact guess (e.g.
    the flat stream at s_target = 0, where the Jacobian is singular) returns
    immediately.

    Raises NonConvergence, SingularJacobian or TailNotResolved; an accepted
    solution satisfies the residual tolerance, the tail-decay bound, c > 0,
    E > 0 and the crest sign convention a_1 > 0 (flat stream excepted).
    """
    if not np.isfinite(s_target) or s_target < 0.0:
        raise ValueError("s_target must be finite and nonnegative")
    n = guess.mode_count
    held = _Factors() if factors is None else factors

    def trial(u_t: np.ndarray):
        """(u_t, solution, residual, max-norm); the norm is inf if u_t or its
        residual is not finite."""
        sol_t = _solution(u_t, cfg.gravity, cfg.surface_pressure)
        if sol_t is None:
            return u_t, None, None, np.inf
        r_t = residual_vector(sol_t, s_target)
        rmax_t = _linf(r_t)
        return u_t, sol_t, r_t, rmax_t if np.isfinite(rmax_t) else np.inf

    u = _vector(guess)
    sol = _solution(u, cfg.gravity, cfg.surface_pressure)
    if sol is None:
        raise ValueError("initial guess is not evaluable")
    r = residual_vector(sol, s_target)
    rmax = _linf(r)
    iters = 0
    # GMRES's Krylov bases, shared by every step of this solve: at large N
    # each lies above malloc's mmap threshold, so a pair per step would be
    # mapped afresh and page-fault on every first touch.
    bases = (np.empty((_KRYLOV_MAX + 1, n + 2)),
             np.empty((_KRYLOV_MAX, n + 2)))
    while rmax > cfg.newton_tol:
        if not np.isfinite(rmax):
            raise NonConvergence("residual became non-finite", iters, rmax)
        if iters >= cfg.newton_max_iter:
            raise NonConvergence(
                f"no convergence in {cfg.newton_max_iter} iterations "
                f"(residual {rmax:.3e})", iters, rmax)
        delta = None
        if held.lu is not None and held.lu[0].shape[0] == n + 2:
            delta = _gmres(sol, r, _lu_preconditioner(held.lu), bases)
        elif held.lu is None and n >= _FOURIER_MIN_MODES:
            weights = _weights(sol)
            precond = _fourier_preconditioner(weights)
            if precond is not None:
                delta = _gmres(sol, r, precond, bases, weights)
        if delta is None:
            # Let the held factors go first: one N^2 array at a time, not two.
            held.lu = None
            delta = _direct_step(sol, s_target, r, held)
        lam = 1.0
        for _ in range(_MAX_DAMPINGS + 1):
            step = trial(u + lam * delta)
            if step[3] < rmax or step[3] <= cfg.newton_tol:
                break
            lam *= 0.5
        else:
            raise NonConvergence(
                f"damping exhausted at iteration {iters} (residual {rmax:.3e})",
                iters, rmax)
        u, sol, r, rmax = step
        iters += 1
    tail = tail_ratio(sol)
    if diagnostics is not None:
        diagnostics.update(iterations=iters, residual_norm=rmax, tail_ratio=tail)
    if tail > tail_limit:
        raise TailNotResolved(
            f"tail ratio {tail:.3e} exceeds {tail_limit:.3e} at N = {n}",
            tail, sol)
    if sol.E <= 0.0:
        raise NonConvergence("converged to a nonphysical branch (E <= 0)",
                             iters, rmax)
    amax = float(np.abs(sol.coeffs).max())
    if amax > 0.0 and sol.coeffs[0] <= 0.0:
        raise NonConvergence("converged to a mirrored branch (a_1 <= 0)",
                             iters, rmax)
    return sol


def _pad_modes(sol: ConformalSolution, n: int) -> ConformalSolution:
    a = np.zeros(n)
    a[: sol.coeffs.size] = sol.coeffs
    return ConformalSolution(c=sol.c, E=sol.E, coeffs=a, gravity=sol.gravity,
                             surface_pressure=sol.surface_pressure)


def _secant_guess(sol_p, s_p, sol, s, target) -> ConformalSolution | None:
    """The wave on the line through sol_p at steepness s_p and sol at s, at
    ``target`` and sol's mode count; None unless finite with c > 0."""
    u, u_p = _vector(sol), _vector(_pad_modes(sol_p, sol.mode_count))
    return _solution(u + (target - s) / (s - s_p) * (u - u_p),
                     sol.gravity, sol.surface_pressure)


@dataclass(frozen=True)
class FamilyMember:
    steepness: float
    solution: ConformalSolution
    newton_iters: int
    residual_norm: float
    crest_indicator: float
    tail_ratio: float


@dataclass(frozen=True)
class ContinuationFamily:
    """Monotone-steepness family of waves with per-member diagnostics."""

    members: tuple[FamilyMember, ...]
    stop_reason: str  # reached_stop | step_floor | mode_cap
    requested_stop: float

    @property
    def steepnesses(self) -> np.ndarray:
        return np.array([m.steepness for m in self.members])

    @property
    def last(self) -> FamilyMember:
        return self.members[-1]


def _solve_target(sol, target, cfg, max_modes, diag_out, factors, tail_limit):
    """Newton at one target from a warm start, doubling modes as needed;
    TailNotResolved once doubling would pass ``max_modes``."""
    guess = sol
    while True:
        diag = {}
        try:
            out = newton_solve(guess, target, cfg, diagnostics=diag,
                               tail_limit=tail_limit, factors=factors)
            diag_out.update(diag)
            return out
        except TailNotResolved as exc:
            n2 = 2 * guess.mode_count
            if n2 > max_modes:
                raise
            # Reuse the converged low-resolution solution as the warm start.
            guess = _pad_modes(exc.solution, n2)


def continue_family(
    s_start: float,
    s_stop: float,
    cfg: WaveConfig,
    *,
    initial_step: float = 0.01,
    max_modes: int = 2048,
    tail_limit: float = TAIL_DECAY_RATIO,
) -> ContinuationFamily:
    """Walk the family from s_start to s_stop with adaptive steps.

    Warm-started Newton continuation in steepness: the step, at first
    ``initial_step`` (at least the floor 1e-5), is halved on a failed solve
    down to that floor and the mode count is doubled, up to ``max_modes``,
    whenever the coefficient tail of a converged solve stops meeting the
    decay bound ``tail_limit`` of `newton_solve` (`TAIL_DECAY_RATIO`, 1e-8,
    by default). With ``tail_limit=np.inf`` no tail is tested: the mode
    count stays at cfg.mode_count, and the walk ends only at s_stop or the
    step floor. Each target is solved once, from a secant-predicted guess
    when one is offered and from the previous member otherwise; any
    failure halves the step. All solves of the walk share one holder of LU
    factors, the GMRES preconditioner of `newton_solve`, which each
    refreshes only when it no longer serves. Members are recorded at every
    accepted target; the family ends at s_stop, at the step floor or at the
    mode cap, with the stop reason recorded.
    Solver errors propagate only if not even the first member can be
    computed. An unusable range, step or mode cap raises InvalidConfig.
    """
    if not (0.0 < s_start <= s_stop < np.inf):
        raise InvalidConfig("need 0 < s_start <= s_stop < inf")
    if not initial_step >= _MIN_STEP:
        raise InvalidConfig(f"need initial_step >= {_MIN_STEP:g}")
    if cfg.mode_count > max_modes:
        raise InvalidConfig(f"mode_count {cfg.mode_count} exceeds "
                            f"max_modes {max_modes}")
    ramp0 = min(s_start, 0.02)
    diag: dict = {}
    factors = _Factors()
    sol = _solve_target(initial_guess(ramp0, cfg), ramp0, cfg, max_modes,
                        diag, factors, tail_limit)
    s = ramp0
    members: list[FamilyMember] = []

    def record(sol, diag):
        members.append(FamilyMember(
            steepness=steepness(sol), solution=sol,
            newton_iters=diag.get("iterations", 0),
            residual_norm=diag.get("residual_norm", 0.0),
            crest_indicator=crest_indicator(sol),
            tail_ratio=tail_ratio(sol)))

    if s >= s_start - 1e-14:
        record(sol, diag)
    step = initial_step
    stop_reason = "reached_stop"
    last_failure = None
    prev: tuple[float, ConformalSolution] | None = None

    def predicted(sol, s, target):
        # Secant extrapolation of the unknown vector along the family; cuts
        # the Newton count substantially near the limit. Conservative: only
        # mild extrapolation factors.
        if prev is None:
            return None
        s_p, sol_p = prev
        if not (s_p < s) or (target - s) > 4.0 * (s - s_p):
            return None
        return _secant_guess(sol_p, s_p, sol, s, target)

    while s < s_stop - 1e-14:
        target = min(s + step, s_stop)
        if s < s_start:
            target = min(target, s_start)  # land exactly on s_start
        diag = {}
        guess = predicted(sol, s, target)
        try:
            new_sol = _solve_target(sol if guess is None else guess, target,
                                    cfg, max_modes, diag, factors, tail_limit)
        except (NonConvergence, SingularJacobian, TailNotResolved) as exc:
            last_failure = exc
            step *= 0.5
            if step < _MIN_STEP:
                stop_reason = ("mode_cap" if isinstance(exc, TailNotResolved)
                               else "step_floor")
                break
            continue
        prev = (s, sol)
        sol = new_sol
        s = target
        if s >= s_start - 1e-14:
            record(sol, diag)
    if not members:
        if last_failure is not None:
            raise last_failure
        raise NonConvergence("continuation produced no members")
    return ContinuationFamily(members=tuple(members), stop_reason=stop_reason,
                              requested_stop=s_stop)


@dataclass(frozen=True)
class LimitEstimate:
    """Largest resolvable steepness found by pushing the continuation."""

    s_max: float
    K_at_max: float
    N_used: int
    stop_reason: str
    family: ContinuationFamily


def estimate_limit(
    cfg: WaveConfig,
    *,
    s_start: float = 0.01,
    max_modes: int = 2048,
) -> LimitEstimate:
    """Push the continuation as far as it goes.

    The walk aims at s = 0.2, above any attainable steepness, with the
    default steps of `continue_family`, so it ends at the step floor or the
    mode cap; the last member is the estimate. Failed solves after the
    first member only halve the step. It raises as `continue_family` does:
    the first member's solver error if not even that one converges, and
    InvalidConfig for an unusable start or mode cap.
    """
    fam = continue_family(s_start, _S_CEILING, cfg, max_modes=max_modes)
    last = fam.last
    return LimitEstimate(
        s_max=last.steepness,
        K_at_max=last.crest_indicator,
        N_used=last.solution.mode_count,
        stop_reason=fam.stop_reason,
        family=fam)
