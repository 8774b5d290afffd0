"""Conformal-strip representation of periodic deep-water traveling waves.

A steadily traveling gravity wave of wavelength 2*pi is stored by its speed c,
the Bernoulli surface constant E, and the coefficients a_1..a_N of a truncated
exponential-cosine series for the height function h(q, p) on the half-strip
p <= 0 (q is the velocity potential coordinate, p the streamline coordinate,
both in the frame moving with the wave):

    h(q, p) = p/c + sum_k a_k exp(k p/c) cos(k q/c)
    x(q, p) = q/c + sum_k a_k exp(k p/c) sin(k q/c)

with theta = q/c running over one period [0, 2*pi] and y = h. Every member of
this family is an exact harmonic function of (q, p) satisfying the conjugacy
relations x_q = h_p, x_p = -h_q, is 2*pi*c-periodic in q, even in q about the
crest at q = 0, and tends to the undisturbed stream h ~ p/c as p -> -inf.
Only the free-surface condition on p = 0 and the wave height couple the
coefficients; those live in `spectral_solver`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

__all__ = [
    "TAIL_DECAY_RATIO",
    "InvalidConfig",
    "WaveConfig",
    "ConformalSolution",
    "StripPoint",
    "ConformalJet",
    "eval_conformal_jet",
    "eval_jet_grid",
    "steepness",
    "crest_indicator",
    "tail_ratio",
]

# Accepted solutions must have a spectrally resolved tail: the last retained
# coefficient may not exceed this fraction of the largest one.
TAIL_DECAY_RATIO = 1e-8

# WaveConfig fields that count something and so must be integers.
_COUNT_FIELDS = ("mode_count", "newton_max_iter", "grid_nq", "grid_np")


class InvalidConfig(ValueError):
    """A configuration value, a derived grid setting or an argument of a
    solver or grid routine (range, step, mode cap) is unusable."""


@dataclass(frozen=True)
class WaveConfig:
    """Physical constants, resolution and tolerance knobs.

    The wavelength is fixed at 2*pi; gravity and the ambient surface pressure
    are configurable. ``grid_depth`` is the strip floor p_min used by field
    grids; ``None`` resolves to one conformal wavelength of depth, -2*pi*c,
    at evaluation time (deeper rows are uniform flow to ~1e-11). Counts
    (``mode_count``, ``newton_max_iter``, ``grid_nq``, ``grid_np``) must be
    integers, every value must be finite, and no field takes a bool.
    """

    gravity: float = 1.0
    surface_pressure: float = 0.0
    mode_count: int = 128
    newton_tol: float = 1e-12
    newton_max_iter: int = 40
    grid_nq: int = 256
    grid_np: int = 128
    grid_depth: float | None = None
    excision_radius: float = 0.05
    crest_indicator_threshold: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (bool, np.bool_)):
                raise InvalidConfig(f"{f.name} must be a number, not a bool")
            if f.name in _COUNT_FIELDS and not isinstance(value, Integral):
                raise InvalidConfig(f"{f.name} must be an integer")
            if not (value is None or isinstance(value, Integral)
                    or np.isfinite(value)):
                raise InvalidConfig(f"{f.name} must be finite")
        if not (self.gravity > 0.0):
            raise InvalidConfig("gravity must be positive")
        if not (self.newton_tol > 0.0):
            raise InvalidConfig("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise InvalidConfig("newton_max_iter must be at least 1")
        if self.mode_count < 4:
            raise InvalidConfig("mode_count must be at least 4")
        if self.grid_nq < 1 or self.grid_np < 1:
            raise InvalidConfig("grid dimensions must be positive")
        if self.grid_depth is not None and not (self.grid_depth < 0.0):
            raise InvalidConfig("grid_depth must be negative (p_min < 0)")
        if self.excision_radius < 0.0:
            raise InvalidConfig("excision_radius must be nonnegative")
        if not (0.0 < self.crest_indicator_threshold < 1.0):
            raise InvalidConfig("crest_indicator_threshold must lie in (0, 1)")

    def resolved_depth(self, c: float) -> float:
        """Grid floor p_min for a wave of speed c."""
        if self.grid_depth is not None:
            return float(self.grid_depth)
        return -2.0 * np.pi * c


@dataclass(frozen=True)
class ConformalSolution:
    """One traveling wave: speed, surface Bernoulli constant, coefficients.

    Immutable; the coefficient array is copied in and marked read-only.
    ``coeffs[k-1]`` is a_k. A zero coefficient vector is the flat stream.
    """

    c: float
    E: float
    coeffs: np.ndarray
    gravity: float = 1.0
    surface_pressure: float = 0.0

    def __post_init__(self) -> None:
        a = np.array(self.coeffs, dtype=float, copy=True)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(a)):
            raise ValueError("coeffs must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError("wave speed c must be positive and finite")
        if not np.isfinite(self.E):
            raise ValueError("Bernoulli constant E must be finite")
        if not (np.isfinite(self.gravity) and self.gravity > 0.0):
            raise ValueError("gravity must be positive and finite")
        if not np.isfinite(self.surface_pressure):
            raise ValueError("surface_pressure must be finite")

    @property
    def mode_count(self) -> int:
        return self.coeffs.size

    @property
    def period_q(self) -> float:
        """Period of the solution in the potential coordinate q."""
        return 2.0 * np.pi * self.c


@dataclass(frozen=True)
class StripPoint:
    """A point (q, p) of the closed half-strip p <= 0.

    q and p may also be arrays of shapes that broadcast together: one
    StripPoint then carries many points, and the jet and the pointwise field
    functions evaluate them all at once, elementwise.
    """

    q: float | np.ndarray
    p: float | np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.q).all() and np.isfinite(self.p).all()):
            raise ValueError("strip point coordinates must be finite")
        if np.any(self.p > 0.0):
            raise ValueError(
                f"strip point lies above the surface: p = {np.max(self.p)}")


@dataclass(frozen=True)
class ConformalJet:
    """h, x and the partial derivatives entering the hodograph dictionary.

    Floats at one point, arrays of the points' shape at many. By
    construction x_q = h_p, x_p = -h_q and h_qq + h_pp = 0 hold exactly.
    """

    h: float | np.ndarray
    h_q: float | np.ndarray
    h_p: float | np.ndarray
    h_qq: float | np.ndarray
    h_qp: float | np.ndarray
    h_pp: float | np.ndarray
    x: float | np.ndarray
    x_q: float | np.ndarray
    x_p: float | np.ndarray


def _jet(c: float, q, p, re, im) -> ConformalJet:
    """The jet at points (q, p) from the real and imaginary parts re[i],
    im[i] of the series sums of k^i a_k e^{k (p + iq) / c}, i = 0, 1, 2.

    `crest_indicator` repeats the h_p formula at the crest; change both
    together."""
    h_p = 1.0 / c + re[1] / c
    h_q = -im[1] / c
    h_qq = -re[2] / c**2
    return ConformalJet(
        h=p / c + re[0], h_q=h_q, h_p=h_p, h_qq=h_qq, h_qp=-im[2] / c**2,
        h_pp=-h_qq, x=q / c + im[0], x_q=h_p, x_p=-h_q,
    )


# Points per block of `_jet_points`: its temporaries are (block, ~3 sqrt(N)).
_JET_BLOCK = 1024


def _jet_points(sol: ConformalSolution, q, p) -> ConformalJet:
    """Jet of the solution at scattered points (q, p), floats or arrays of
    shapes that broadcast together.

    Writes h + i x = F(w) with F(w) = w/c + sum_k a_k z^k, w = p + i q and
    z = exp(w/c), and takes h, x and their partials from the real and
    imaginary parts of three sums with a_k, k a_k and k^2 a_k. The sums are
    split in two levels (baby and giant steps): with b the smallest power
    of two >= sqrt(N) and G = ceil(N/b), z^(jb+r) = (z^b)^j z^r. The baby
    powers z^1..z^b and the giant powers (z^b)^0..(z^b)^(G-1) come from two
    running products, z^b from its own exponential. One real product of
    the baby powers' real parts, and one of their imaginary parts, with the
    zero-padded weights laid out as a (b, 3G) matrix gives each point's
    inner sums over r; a (3, G) by G product per point with its giant powers
    finishes them. Each power so takes at most b + G products instead of k.
    Points are taken `_JET_BLOCK` at a time, so the temporaries stay
    O(block * sqrt(N)) however many points are asked for.

    Returns a `ConformalJet` of arrays of the broadcast shape (floats for
    scalar q and p). The series is entire in (q, p), so points above the
    surface evaluate too, as the position inverter's Newton iterates may
    need; `eval_conformal_jet` is the checked entry point for the fluid.
    """
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float),
                               np.asarray(p, dtype=float))
    c = sol.c
    a = sol.coeffs
    n = a.size
    b = 1 << ((n - 1).bit_length() + 1) // 2
    g = -(-n // b)
    k = np.arange(1.0, n + 1.0)
    # Row r - 1, column i G + j: k^i a_k at k = j b + r, zero past N.
    w = np.zeros((3, g * b))
    w[0, :n] = a
    w[1, :n] = k * a
    w[2, :n] = k * k * a
    w = w.reshape(3 * g, b).T
    u = (p.ravel() + 1j * q.ravel()) / c
    sums = np.empty((3, u.size), dtype=complex)
    for lo in range(0, u.size, _JET_BLOCK):
        ub = u[lo:lo + _JET_BLOCK]
        baby = np.empty((ub.size, b), dtype=complex)
        baby[:] = np.exp(ub)[:, None]
        np.cumprod(baby, axis=1, out=baby)
        giant = np.empty((ub.size, g, 1), dtype=complex)
        giant[:, 0] = 1.0
        giant[:, 1:] = np.exp(b * ub)[:, None, None]
        np.cumprod(giant, axis=1, out=giant)
        inner = np.ascontiguousarray(baby.real) @ w \
            + 1j * (np.ascontiguousarray(baby.imag) @ w)
        outer = inner.reshape(-1, 3, g) @ giant
        sums[:, lo:lo + _JET_BLOCK] = outer[..., 0].T
    shape = (3,) + q.shape
    return _jet(c, q, p, sums.real.reshape(shape), sums.imag.reshape(shape))


def eval_conformal_jet(sol: ConformalSolution, pt: StripPoint) -> ConformalJet:
    """Evaluate the height function, its conjugate and their partials at pt.

    Floats at one point; arrays when pt carries arrays of points, all taken
    through the same scattered-point sums. Pure and deterministic; rejects
    points above the free surface (p > 0).
    """
    if np.any(pt.p > 0.0):
        raise ValueError(f"evaluation above the surface: p = {np.max(pt.p)}")
    return _jet_points(sol, pt.q, pt.p)


def eval_jet_grid(sol: ConformalSolution, q: np.ndarray, p: np.ndarray) -> ConformalJet:
    """Jet of the solution on the tensor grid q x p, p rows by q columns.

    On the half-period grid, q bit for bit ``np.linspace(0, pi*c, nq)`` with
    nq >= 2 (the strip grid's columns, crest line to trough line), the
    angles are theta_j = j pi / (nq - 1) = 2 pi j / M with M = 2 (nq - 1),
    so each row's sums of k^i a_k e^{k p / c} e^{i k theta_j}, i = 0, 1, 2,
    are one real FFT of length M of those weights folded mod M: the real
    part gives the cosine sums, minus the imaginary part the sine sums. Bin
    0 and the Nyquist bin are real, so h_q and h_qp are exactly 0 on the
    crest and trough columns. Any other q goes through the scattered-point
    jet. Returns a `ConformalJet` of (len(p), len(q)) arrays that agrees
    with the scattered-point jet to rounding.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.ndim != 1 or p.ndim != 1:
        raise ValueError("q and p must be 1-D sample arrays")
    if p.size and p.max() > 0.0:
        raise ValueError("grid rows must satisfy p <= 0")
    c = sol.c
    nq = q.size
    if nq < 2 or not np.array_equal(q, np.linspace(0.0, np.pi * c, nq)):
        return eval_conformal_jet(sol, StripPoint(q[None, :], p[:, None]))
    n = sol.coeffs.size
    m = 2 * (nq - 1)
    k = np.arange(1.0, n + 1.0)
    # w[i] holds k^i a_k e^{kp/c} at index k of each row, zero-padded to
    # whole M-long pieces; summing the pieces folds k mod M.
    w = np.zeros((3, p.size, -(-(n + 1) // m) * m))
    w[0, :, 1:n + 1] = np.exp(np.outer(p / c, k)) * sol.coeffs
    w[1, :, 1:n + 1] = w[0, :, 1:n + 1] * k
    w[2, :, 1:n + 1] = w[1, :, 1:n + 1] * k
    sums = np.fft.rfft(w.reshape(3, p.size, -1, m).sum(axis=2), axis=-1)
    # 0 - Im, not -Im: the sine sums on the crest and trough columns are
    # +0, as a sum of w_k sin(0) is, so v and f there are 0, not -0.
    return _jet(c, q[None, :], p[:, None], sums.real, 0.0 - sums.imag)


def steepness(sol: ConformalSolution) -> float:
    """Crest-to-trough height divided by the wavelength.

    Equals (h(0, 0) - h(pi*c, 0)) / (2*pi); even modes cancel, so only the
    odd coefficients contribute: s = sum_{k odd} a_k / pi.
    """
    return float(sol.coeffs[0::2].sum() / np.pi)


def crest_indicator(sol: ConformalSolution) -> float:
    """Relative crest flow speed (c - u(crest)) / c.

    Equals 1 for the flat stream and tends to 0 as the crest approaches a
    stagnation point; equals 1 / (1 + sum_k k a_k). Values near 0 flag the
    near-extreme regime in which pointwise evaluation adjacent to the crest
    stops being trustworthy.
    """
    # At the crest z = 1, so h_q = 0 and h_p = 1/c + (sum_k k a_k)/c, the
    # h_p of `_jet`. The sum is a dot product with ones, not the jet's
    # two-level sum, and K = h_p / (h_p**2 c) as before, so K keeps the bits
    # that summary.csv and report.json have carried.
    a = sol.coeffs
    k = np.arange(1.0, a.size + 1.0)
    h_p = 1.0 / sol.c + (np.ones(a.size) @ (k * a)) / sol.c
    d = h_p**2
    if d == 0.0 or not np.isfinite(d):
        return 0.0
    return float(h_p / (d * sol.c))


def tail_ratio(sol: ConformalSolution) -> float:
    """|a_N| relative to the largest |a_k|; 0 for the flat stream."""
    amax = float(np.abs(sol.coeffs).max())
    if amax == 0.0:
        return 0.0
    return float(abs(sol.coeffs[-1]) / amax)
