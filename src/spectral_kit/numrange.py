"""Numerical range geometry, numerical radius, and operator radii w_s.

The numerical range W(A) is handled exclusively through its support function
p(theta) = lambda_max(re(e^{-i theta} A)); convexity of W(A) is a theorem and
is not re-verified.  Class membership for the Sz.-Nagy--Foias families C_s is
a grid decision over the unit-disk parameter zeta = r e^{i theta}.  The
operator radius w_s is computed directly as the maximum over angles of the
largest positive real eigenvalue of a 2n x 2n companion matrix, then
bracketed: ``lo`` carries a violation witness of the membership test (or is
the a-priori bound max(rho(A), ||A||/s)), and ``hi`` passed the grid
membership test.  Bisection with that test runs only as a fallback when
either check fails, and ``iterations`` counts its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrixcore import as_matrix

__all__ = [
    "SupportProfile",
    "CsMembership",
    "OperatorRadiusResult",
    "BisectionError",
    "support_profile",
    "support_value",
    "numerical_radius",
    "dist_origin",
    "cs_membership",
    "ws_radius",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# 4x angular zooms after the 90-angle start: 2pi/90 / 4^8 ~ 1e-6 rad
_PEAK_ZOOMS = 8
_PEAK_CANDIDATES = 4


class BisectionError(RuntimeError):
    """Raised when the membership oracle is inconsistent across the bracket."""


@dataclass(frozen=True)
class SupportProfile:
    """Support-function samples of W(A).

    thetas : angle grid over [0, 2pi)
    values : p(theta_k) = lambda_max(re(e^{-i theta_k} A))
    witnesses : unit eigenvectors x_k attaining p(theta_k), rows of shape (N, n)
    points : Rayleigh quotients <A x_k, x_k>; these lie on the boundary of W(A)
    """

    thetas: np.ndarray
    values: np.ndarray
    witnesses: np.ndarray
    points: np.ndarray

    def boundary_points(self) -> np.ndarray:
        return self.points


def _herm_parts(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # stack of re(e^{-i theta} A) = (e^{-i theta} A + e^{i theta} A*) / 2
    ph = np.exp(-1j * thetas)[:, None, None]
    return (ph * a[None] + np.conj(ph * a[None]).swapaxes(1, 2)) / 2.0


def hermitian_eigmax(h: np.ndarray) -> np.ndarray:
    """lambda_max for a stack of Hermitian matrices, shape (..., n, n).

    Closed forms for n <= 3 (vectorized), LAPACK otherwise.
    """
    n = h.shape[-1]
    if n == 1:
        return h[..., 0, 0].real
    if n == 2:
        half_tr = (h[..., 0, 0].real + h[..., 1, 1].real) / 2.0
        gap = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0
        return half_tr + np.sqrt(gap ** 2 + np.abs(h[..., 0, 1]) ** 2)
    if n == 3:
        d0 = h[..., 0, 0].real
        d1 = h[..., 1, 1].real
        d2 = h[..., 2, 2].real
        q = (d0 + d1 + d2) / 3.0
        p1 = (np.abs(h[..., 0, 1]) ** 2 + np.abs(h[..., 0, 2]) ** 2
              + np.abs(h[..., 1, 2]) ** 2)
        p2 = (d0 - q) ** 2 + (d1 - q) ** 2 + (d2 - q) ** 2 + 2.0 * p1
        p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
        safe = np.where(p > 0, p, 1.0)
        b00 = (d0 - q) / safe
        b11 = (d1 - q) / safe
        b22 = (d2 - q) / safe
        b01 = h[..., 0, 1] / safe
        b02 = h[..., 0, 2] / safe
        b12 = h[..., 1, 2] / safe
        det = _det3_hermitian(b00, b11, b22, b01, b02, b12)
        r = np.clip(det / 2.0, -1.0, 1.0)
        phi = np.arccos(r) / 3.0
        lam = q + 2.0 * p * np.cos(phi)
        return np.where(p2 > 0, lam, q)
    return np.linalg.eigvalsh(h)[..., -1]


def _det3_hermitian(d0, d1, d2, h01, h02, h12):
    # det of Hermitian 3x3 with real diagonal d and off-diagonals h01, h02, h12
    return (d0 * (d1 * d2 - np.abs(h12) ** 2)
            - (np.abs(h01) ** 2 * d2 - 2.0 * (h01 * h12 * np.conj(h02)).real)
            - np.abs(h02) ** 2 * d1)


def support_value(a, theta: float) -> float:
    """p(theta) for a single angle."""
    m = as_matrix(a)
    h = _herm_parts(m, np.asarray([theta]))
    return float(hermitian_eigmax(h)[0])


def support_profile(a, n_grid: int = 256) -> SupportProfile:
    """Sample the support function of W(A) on a uniform angle grid.

    Parameters
    ----------
    a : array_like, square.
    n_grid : number of angles, >= 8.

    Returns
    -------
    SupportProfile with values p(theta_k) and unit eigenvector witnesses.
    """
    m = as_matrix(a)
    if n_grid < 8:
        raise ValueError("support grid must have at least 8 angles")
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    h = _herm_parts(m, thetas)
    vals, vecs = np.linalg.eigh(h)
    witnesses = vecs[:, :, -1]
    pts = np.einsum("ki,ij,kj->k", np.conj(witnesses), m, witnesses)
    return SupportProfile(thetas=thetas, values=vals[:, -1],
                          witnesses=witnesses, points=pts)


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    # golden-section search for the maximum of a unimodal-on-bracket function
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    x = (a + b) / 2.0
    return x, fun(x)


def _refined_angular_max(a: np.ndarray, transform, n_grid: int) -> float:
    # maximize transform(p(theta)) over theta: grid argmax + golden refinement
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    vals = transform(hermitian_eigmax(_herm_parts(a, thetas)))
    k = int(np.argmax(vals))
    step = 2.0 * np.pi / n_grid

    def f(t):
        return float(transform(hermitian_eigmax(_herm_parts(a, np.asarray([t])))[0]))

    _, best = _golden_max(f, thetas[k] - step, thetas[k] + step)
    return max(float(vals[k]), best)


def numerical_radius(a, n_grid: int = 256) -> float:
    """w(A) = max_theta p(theta), grid maximum plus golden-section refinement."""
    m = as_matrix(a)
    if not m.any():
        return 0.0
    return _refined_angular_max(m, lambda v: v, n_grid)


def dist_origin(a, n_grid: int = 256) -> float:
    """Distance from 0 to W(A): max(0, max_theta(-p(theta)))."""
    m = as_matrix(a)
    val = _refined_angular_max(m, lambda v: -v, n_grid)
    return max(0.0, val)


@dataclass(frozen=True)
class CsMembership:
    """Grid decision for A in C_s, with the worst grid point as witness."""

    member: bool
    margin: float  # max over the grid of lambda_max(H(r, theta)); <= tol means member
    theta: float
    r: float
    vector: np.ndarray
    tol: float


class _CsKernel:
    """Shared evaluator for C_s membership of A/t.

    With B = A*A, M(theta) = e^{i theta} A + e^{-i theta} A*, ca = (2-s)/s and
    cb = (s-1)/s, the test matrix at zeta = r e^{i theta} is
    H = ca u^2 B + cb u M(theta) - I with u = r/t.  ``margins*`` evaluate
    lambda_max(H) on (theta, r) lattices; ``peak`` finds the scaling t at
    which the test first fails from the companion eigenproblem per angle.
    """

    def __init__(self, a: np.ndarray, s: float, grid=(90, 50)):
        if s <= 0:
            raise ValueError("class parameter s must be positive")
        n_theta, n_r = grid
        if n_theta < 90 or n_r < 50:
            raise ValueError("membership grid must be at least 90 x 50")
        s = float(s)
        self.a = a
        self.ca = (2.0 - s) / s
        self.cb = (s - 1.0) / s
        self.n = a.shape[0]
        self.thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        self.rs = np.linspace(0.0, 1.0, n_r)
        self.aha = a.conj().T @ a

    def _mstack(self, thetas) -> np.ndarray:
        ph = np.exp(1j * np.asarray(thetas, dtype=float))[:, None, None]
        return ph * self.a[None] + np.conj(ph) * self.a.conj().T[None]

    def margins(self, t: float) -> np.ndarray:
        # lambda_max(H(r, theta)) for A/t over the whole grid, shape (n_theta, n_r)
        return self.margins_at(t, self.thetas, self.rs)

    def margins_at(self, t: float, thetas, rs) -> np.ndarray:
        # lambda_max(H(r, theta)) for A/t on an arbitrary (theta, r) lattice
        u = np.asarray(rs, dtype=float) / t
        mst = self._mstack(thetas)
        h = (self.ca * (u ** 2)[None, :, None, None] * self.aha[None, None]
             + self.cb * u[None, :, None, None] * mst[:, None])
        idx = np.arange(self.n)
        h[..., idx, idx] -= 1.0
        return hermitian_eigmax(h.reshape(-1, self.n, self.n)).reshape(
            len(mst), len(u))

    def max_margin(self, t: float, refine: bool = False) -> float:
        grid = self.margins(t)
        best = float(grid.max())
        if not refine:
            return best
        # sharpen the grid supremum: nested 9x9 lattice zooms around the grid
        # argmax (for s <= 2 the r-supremum sits exactly at r = 1, for s > 2
        # it may be interior); four 4x shrinks resolve ~256x below the grid
        # spacing, and re-evaluating the center keeps the rounds monotone
        k_theta, k_r = np.unravel_index(int(np.argmax(grid)), grid.shape)
        theta = float(self.thetas[k_theta])
        r = float(self.rs[k_r])
        d_theta = 2.0 * np.pi / len(self.thetas)
        d_r = 1.0 / (len(self.rs) - 1)
        val = best
        for _ in range(4):
            ths = theta + np.linspace(-d_theta, d_theta, 9)
            rrs = np.clip(r + np.linspace(-d_r, d_r, 9), 0.0, 1.0)
            sub = self.margins_at(t, ths, rrs)
            i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
            theta, r = float(ths[i]), float(rrs[j])
            val = max(val, float(sub[i, j]))
            d_theta /= 4.0
            d_r /= 4.0
        return val

    def crossing(self, thetas) -> np.ndarray:
        # mu*(theta): lambda_max(H) first reaches 0 at u = 1/mu*, the largest
        # positive real eigenvalue of the companion [[0, I], [ca B, cb M]]
        # of mu^2 I - cb mu M - ca B; 0 where there is none.  Near-double
        # roots (the edge of a real-root window) carry rounding-level
        # imaginary parts, so "real" is decided with a loose tolerance;
        # a spurious root can only raise the estimate, which the witness
        # check in ws_radius then rejects
        n = self.n
        mst = self._mstack(thetas)
        comp = np.zeros((len(mst), 2 * n, 2 * n), dtype=complex)
        comp[:, :n, n:] = np.eye(n)
        comp[:, n:, :n] = self.ca * self.aha
        comp[:, n:, n:] = self.cb * mst
        ev = np.linalg.eigvals(comp)
        scale = np.abs(ev).max(axis=1, keepdims=True)
        real = (np.abs(ev.imag) <= 1e-6 * scale) & (ev.real > 0)
        return np.where(real, ev.real, 0.0).max(axis=1)

    def peak(self, extra_thetas) -> tuple[float, float]:
        """Estimate max_theta mu*(theta) = w_s(A) and its angle.

        Starts from the grid angles plus ``extra_thetas`` (for large s the
        real-root window is a sliver of the circle around -arg lambda_k(A)
        that the grid misses).  mu* can have several near-equal peaks, so
        every local maximum of the start samples within step^2 (relative)
        of the best one is refined, at most ``_PEAK_CANDIDATES`` of them.
        The margin is 8x the s = 2 bound: there mu* is the support function
        p of the convex set W(A), and p'' >= -p keeps a peak within
        p step^2 / 8 of its nearest sample.  Each candidate gets nested
        9-point zooms, shrinking 4x per round.
        """
        thetas = np.sort(np.concatenate([
            self.thetas, np.mod(np.asarray(extra_thetas, dtype=float), 2.0 * np.pi)]))
        mu = self.crossing(thetas)
        d_theta = 2.0 * np.pi / len(self.thetas)
        best = float(mu.max())
        local = ((mu >= np.roll(mu, 1)) & (mu > np.roll(mu, -1))
                 & (mu >= best * (1.0 - d_theta ** 2)))
        local[int(np.argmax(mu))] = True
        order = np.flatnonzero(local)[np.argsort(-mu[local])][:_PEAK_CANDIDATES]
        centres, values = thetas[order], mu[order]
        offsets = np.linspace(-1.0, 1.0, 9)
        for _ in range(_PEAK_ZOOMS):
            ths = centres[:, None] + d_theta * offsets[None, :]
            sub = self.crossing(ths.ravel()).reshape(ths.shape)
            rows, j = np.arange(len(centres)), np.argmax(sub, axis=1)
            better = sub[rows, j] > values
            centres = np.where(better, ths[rows, j], centres)
            values = np.maximum(values, sub[rows, j])
            d_theta /= 4.0
        k = int(np.argmax(values))
        return float(centres[k]), float(values[k])


def cs_membership(a, s: float, grid=(90, 50), tol: float = 1e-8) -> CsMembership:
    """Decide A in C_s on a (theta, r) grid over the unit disk.

    H(r, theta) = ((2-s)/s) r^2 A*A + ((s-1)/s) r (e^{i theta} A + e^{-i theta} A*) - I;
    membership holds iff the grid maximum of lambda_max(H) stays <= tol.
    The r-grid covers [0, 1] even for s < 2 (where the supremum sits at r = 1)
    so that one code path also serves s > 2, where (2-s)/s < 0.
    """
    m = as_matrix(a)
    kernel = _CsKernel(m, s, grid)
    margins = kernel.margins(1.0)
    k_theta, k_r = np.unravel_index(int(np.argmax(margins)), margins.shape)
    margin = float(margins[k_theta, k_r])
    theta = float(kernel.thetas[k_theta])
    r = float(kernel.rs[k_r])
    s = float(s)
    h = ((2.0 - s) / s * r ** 2 * kernel.aha
         + (s - 1.0) / s * r * (np.exp(1j * theta) * m + np.exp(-1j * theta) * m.conj().T)
         - np.eye(m.shape[0]))
    _, vecs = np.linalg.eigh(h)
    return CsMembership(member=margin <= tol, margin=margin, theta=theta, r=r,
                        vector=vecs[:, -1], tol=tol)


@dataclass(frozen=True)
class OperatorRadiusResult:
    """Bracketed value of w_s(A).

    radius is the bracket midpoint.  lo is witness-certified: either the
    a-priori bound max(rho(A), ||A||/s) (shrunk by 1e-9) or a scaling at
    which some tested (theta, r) point's lambda_max exceeds the membership
    tolerance, so lo < w_s(A).  hi passed the grid membership test (the
    90 x 50 sweep with lattice zooms, plus the companion estimate's angle),
    so scaling by hi is safe downstream.  iterations counts the bisection
    steps of the fallback that runs only when the companion estimate fails
    either check; it is 0 when the estimate is certified directly.
    """

    s: float
    radius: float
    bracket: float
    lo: float
    hi: float
    iterations: int


def ws_radius(a, s: float, tol: float = 1e-6, grid=(90, 50),
              membership_tol: float = 1e-8) -> OperatorRadiusResult:
    """Operator radius w_s(A) = inf{ r > 0 : A/r in C_s }.

    w_s(A) = max_theta mu*(theta), where u = 1/mu* is the first u at which
    lambda_max(ca u^2 A*A + cb u M(theta) - I) reaches 0 (see
    :class:`_CsKernel`).  The estimate mu-hat comes from one companion
    eigenproblem per angle, and is certified in two checks:

    * lo = mu-hat - 0.45 tol if the membership test fails there at the
      estimate's angle (a violation witness), else the a-priori lower bound
      max(rho(A), ||A||/s) (1 - 1e-9) <= w_s(A); a smaller floor would push
      the scaled Hermitian test matrices into float-cancellation territory;
    * hi = mu-hat + 0.45 tol (kept within [lo, 2 ||A|| max(1, 1/s)]) must
      pass the grid membership test, extended by the estimate's angle.

    If hi fails, the bracket widens to the a-priori upper bound, and while
    it is wider than ``tol`` it is bisected with the same membership test;
    monotonicity in t (scaling by |lambda| <= 1 preserves C_s) is what makes
    the bisection valid.  An upper bound the test rejects raises
    :class:`BisectionError`.
    """
    m = as_matrix(a)
    norm2 = float(np.linalg.norm(m, 2))
    if norm2 == 0.0:
        raise ValueError("w_s is undefined for the zero matrix")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    kernel = _CsKernel(m, s, grid)
    eigs = np.linalg.eigvals(m)
    floor = max(float(np.abs(eigs).max()), norm2 / s) * (1.0 - 1e-9)
    ceiling = 2.0 * norm2 * max(1.0, 1.0 / s)
    theta, mu = kernel.peak(-np.angle(eigs))

    def witness(t):
        # lambda_max along the estimate's angle, where a narrow real-root
        # window (large s) can hide between grid angles
        return float(kernel.margins_at(t, [theta], kernel.rs).max())

    def margin(t):
        return max(kernel.max_margin(t, refine=True), witness(t))

    lo = mu - 0.45 * tol
    if lo <= floor or witness(lo) <= membership_tol:
        lo = floor
    # lo >= floor, and for s > 2 the r-grid accepts tiny t, so hi must not
    # follow an estimate that fell below the floor
    hi = max(lo, min(ceiling, mu + 0.45 * tol))
    if margin(hi) > membership_tol:
        hi = ceiling
        if margin(hi) > membership_tol:
            raise BisectionError(
                f"membership oracle rejects the upper bracket t={hi:.6g} for s={s}")
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) <= membership_tol:
            hi = mid
        else:
            lo = mid
        iters += 1
    return OperatorRadiusResult(s=float(s), radius=0.5 * (lo + hi),
                                bracket=hi - lo, lo=lo, hi=hi, iterations=iters)
