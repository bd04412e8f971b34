"""Numerical range geometry, numerical radius, and operator radii w_s.

The numerical range W(A) is handled exclusively through its support function
p(theta) = lambda_max(re(e^{-i theta} A)); convexity of W(A) is a theorem and
is not re-verified.  A sample needs only the top eigenpair of
re(e^{-i theta} A) = cos(theta) H + sin(theta) K, with H and K the Hermitian
and skew-Hermitian parts of A: the top eigenvalue is p(theta) and the top
eigenvector x gives the boundary point <A x, x> (Johnson 1978).
``support_profile`` asks LAPACK ``heevr`` for that pair alone at n >= 10 and
takes it from a stacked ``eigh`` below, where per-call overhead dominates.  It
memoizes the samples of the last 8 matrices, keyed by matrix content (an
in-place edit makes a new key), so the callers that sample W(A) of one matrix
share one sweep; a coarser grid whose angles are every k-th angle of a
memoized one is served as those rows.  Memoized arrays are read-only.

Class membership for the Sz.-Nagy--Foias families C_s is a grid decision over
the unit-disk parameter zeta = r e^{i theta}, sharpened by lattice zooms
around the grid's leading local maxima.  The operator radius w_s is computed
directly as the maximum over angles of the largest positive real eigenvalue
of a 2n x 2n companion matrix, then bracketed: ``lo`` carries a violation
witness of the membership test (or is the a-priori bound max(rho(A),
||A||/s)), and ``hi`` passed the grid membership test.  Bisection with that
test runs only as a fallback when either check fails, and ``iterations``
counts its steps.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zheevr

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
# lambda_max(H) at or below this passes the C_s membership test
_MEMBERSHIP_TOL = 1e-8
# support profiles of the most recently sampled matrices: key -> {n_grid: profile}
_PROFILE_MEMO: OrderedDict = OrderedDict()
_PROFILE_MEMO_SIZE = 8
# from this n on, one top-eigenpair heevr call per angle beats a stacked eigh
_HEEVR_MIN_N = 10


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


def _herm_parts(a: np.ndarray, thetas) -> np.ndarray:
    # re(e^{-i theta} A) = (e^{-i theta} A + e^{i theta} A*) / 2 per angle in thetas
    ph = np.exp(-1j * np.asarray(thetas))[..., None, None]
    return (ph * a + np.conj(ph * a).swapaxes(-1, -2)) / 2.0


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
    return float(hermitian_eigmax(_herm_parts(as_matrix(a), float(theta))))


def _top_eigenpairs(m: np.ndarray, thetas: np.ndarray):
    # (lambda_max, unit eigenvector) of cos(t) H + sin(t) K for each angle t,
    # with H = (A + A*)/2 and K = (A - A*)/(2i) exactly Hermitian
    n = m.shape[0]
    herm = (m + m.conj().T) / 2.0
    skew = (m - m.conj().T) * -0.5j
    cos, sin = np.cos(thetas), np.sin(thetas)
    if n < _HEEVR_MIN_N:
        vals, vecs = np.linalg.eigh(cos[:, None, None] * herm + sin[:, None, None] * skew)
        return vals[:, -1].copy(), vecs[:, :, -1].copy()
    values = np.empty(len(thetas))
    witnesses = np.empty((len(thetas), n), dtype=complex)
    for k in range(len(thetas)):
        w, z, _, _, info = zheevr(cos[k] * herm + sin[k] * skew, range="I", il=n, iu=n)
        if info != 0:
            raise np.linalg.LinAlgError(f"zheevr failed with info = {info}")
        values[k] = w[0]
        witnesses[k] = z[:, 0]
    return values, witnesses


def support_profile(a, n_grid: int = 256) -> SupportProfile:
    """Sample the support function of W(A) on a uniform angle grid.

    Parameters
    ----------
    a : array_like, square.
    n_grid : number of angles, >= 8.

    Returns
    -------
    SupportProfile with values p(theta_k) and unit eigenvector witnesses.

    Each angle costs one top-eigenpair solve: LAPACK ``heevr`` restricted to
    the largest eigenvalue for n >= 10, a stacked ``eigh`` below.  Profiles
    of the last 8 matrices are memoized by matrix content, so an in-place
    edit of ``a`` between calls is sampled afresh.  A request whose
    angles are every k-th angle of a memoized grid is served as those rows
    of it.  Either way the arrays are read-only and equal, bit for bit, to a
    fresh computation.
    """
    m = as_matrix(a)
    if n_grid < 8:
        raise ValueError("support grid must have at least 8 angles")
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    key = (m.shape, m.tobytes())
    grids = _PROFILE_MEMO.setdefault(key, {})
    _PROFILE_MEMO.move_to_end(key)
    for size, prof in grids.items():
        k = size // n_grid
        if size % n_grid == 0 and np.array_equal(prof.thetas[::k], thetas):
            return prof if k == 1 else SupportProfile(
                thetas=prof.thetas[::k], values=prof.values[::k],
                witnesses=prof.witnesses[::k], points=prof.points[::k])
    values, witnesses = _top_eigenpairs(m, thetas)
    pts = np.einsum("ki,ij,kj->k", np.conj(witnesses), m, witnesses)
    prof = SupportProfile(thetas=thetas, values=values, witnesses=witnesses, points=pts)
    for arr in (prof.thetas, prof.values, prof.witnesses, prof.points):
        arr.setflags(write=False)
    grids[n_grid] = prof
    if len(_PROFILE_MEMO) > _PROFILE_MEMO_SIZE:
        _PROFILE_MEMO.popitem(last=False)
    return prof


def _golden_max(fun, lo, hi, tol: float = 1e-12):
    """Golden-section search for the maximum of fun on [lo, hi].

    With scalar brackets, fun maps a float to a float.  With array brackets
    the searches run in lockstep: fun maps an array of points shaped like
    the brackets to their values, and each bracket keeps its own stopping
    test, so every entry follows exactly the arithmetic of a scalar search
    (converged entries are still evaluated, inside their final brackets, but
    their brackets no longer move).
    Returns (x, fun(x)) at the bracket midpoints.
    """
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
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
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    live = b - a > tol
    while live.any():
        left = fc >= fd  # the maximum stays in [a, d], else in [c, b]
        b = np.where(live & left, d, b)
        a = np.where(live & ~left, c, a)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = fun(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        live = b - a > tol
    x = (a + b) / 2.0
    return x, fun(x)


def _polish_peaks(fun, grid: np.ndarray, centers, values, periodic: bool):
    """Golden-section polish of sampled peaks, the finish of every reported sup.

    grid is the sample grid (2 pi k / m if periodic, else linspace(lo, hi, m));
    each centre, with its sampled value, is searched over +- one grid
    spacing, clipped to [lo, hi] unless periodic, and never reports below
    that value.  One centre runs the scalar loop on fun(float); several run
    in lockstep on fun(array), which costs more for a single bracket.
    Returns (points, values), one entry per centre.
    """
    centers = np.asarray(centers, dtype=float)
    if periodic:
        step = 2.0 * np.pi / len(grid)
        lo, hi = centers - step, centers + step
    else:
        step = (grid[-1] - grid[0]) / (len(grid) - 1)
        lo = np.maximum(grid[0], centers - step)
        hi = np.minimum(grid[-1], centers + step)
    if len(centers) == 1:
        x, fx = _golden_max(fun, lo[0], hi[0])
    else:
        x, fx = _golden_max(fun, lo, hi)
    better = fx >= values
    return np.where(better, x, centers), np.where(better, fx, values)


def _peak_indices(vals: np.ndarray, floor: float = -np.inf) -> np.ndarray:
    # periodic local maxima of vals not below floor, best first, at most
    # _PEAK_CANDIDATES of them; the global argmax is always one
    local = (vals >= np.roll(vals, 1)) & (vals > np.roll(vals, -1)) & (vals >= floor)
    local[int(np.argmax(vals))] = True
    return np.flatnonzero(local)[np.argsort(-vals[local])][:_PEAK_CANDIDATES]


def _grid_support(a: np.ndarray) -> np.ndarray:
    # p(theta) on the uniform 256-angle grid from one lambda_max stack
    return hermitian_eigmax(_herm_parts(a, 2.0 * np.pi * np.arange(256) / 256))


def _angular_extremes(a: np.ndarray, signs, p: np.ndarray) -> list:
    # max over theta of sign * p(theta) for each sign, from the samples p on
    # a uniform grid of spacing h.  Every grid peak within |best| h^2 of the
    # best sample can still win, since p'' >= -p keeps a peak within
    # p h^2 / 8 of its nearest sample.  For w(A) several can; for
    # dist(0, W(A)) > 0 only the argmax is one, because the sublevel sets
    # of p are then arcs, so -p has one local maximum.
    grid = 2.0 * np.pi * np.arange(len(p)) / len(p)
    h = 2.0 * np.pi / len(p)
    out = []
    for sign in signs:
        vals = sign * p
        best = float(vals.max())
        ks = _peak_indices(vals, floor=best - abs(best) * h * h)
        _, polished = _polish_peaks(
            lambda t: sign * hermitian_eigmax(_herm_parts(a, t)),
            grid, grid[ks], vals[ks], periodic=True)
        out.append(float(polished.max()))
    return out


def numerical_radius(a) -> float:
    """w(A) = max_theta p(theta): every grid peak that can still win, polished."""
    m = as_matrix(a)
    if not m.any():
        return 0.0
    return _angular_extremes(m, [1.0], _grid_support(m))[0]


def dist_origin(a) -> float:
    """Distance from 0 to W(A): max(0, max_theta(-p(theta)))."""
    m = as_matrix(a)
    return max(0.0, _angular_extremes(m, [-1.0], _grid_support(m))[0])


@dataclass(frozen=True)
class CsMembership:
    """Decision for A in C_s, with the worst point found as witness."""

    member: bool
    margin: float  # max of lambda_max(H(r, theta)) over the zoomed grid; <= tol means member
    theta: float
    r: float
    vector: np.ndarray
    tol: float


class _CsKernel:
    """Shared evaluator for C_s membership of A/t.

    With B = A*A, M(theta) = e^{i theta} A + e^{-i theta} A*, ca = (2-s)/s and
    cb = (s-1)/s, the test matrix at zeta = r e^{i theta} is
    H = ca u^2 B + cb u M(theta) - I with u = r/t.  ``test_matrices`` builds
    H on (theta, r) lattices and ``margins_at`` its lambda_max; ``peak``
    finds the scaling t at which the test first fails from the companion
    eigenproblem per angle.
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
        ph = np.exp(1j * np.asarray(thetas, dtype=float))[..., None, None]
        return ph * self.a + np.conj(ph) * self.a.conj().T

    def test_matrices(self, t: float, thetas, rs) -> np.ndarray:
        # H(r, theta) for A/t on (theta, r) lattices: thetas of shape
        # (..., T) and rs of shape (..., R) give shape (..., T, R, n, n)
        u = (np.asarray(rs, dtype=float) / t)[..., None, :, None, None]
        mst = self._mstack(thetas)[..., :, None, :, :]
        h = self.ca * u ** 2 * self.aha + self.cb * u * mst
        idx = np.arange(self.n)
        h[..., idx, idx] -= 1.0
        return h

    def margins_at(self, t: float, thetas, rs) -> np.ndarray:
        # lambda_max(H(r, theta)) for A/t on (theta, r) lattices, shape (..., T, R)
        return hermitian_eigmax(self.test_matrices(t, thetas, rs))

    def max_margin(self, t: float) -> tuple[float, float, float]:
        """Sharpened sup of lambda_max(H) for A/t, with its (theta, r).

        The grid supremum is refined by nested 9x9 lattice zooms around up
        to ``_PEAK_CANDIDATES`` theta-local maxima of the grid's row maxima,
        best first, so a peak between grid angles is not hidden by a near
        equal one on the grid (for s <= 2 the r-supremum sits exactly at
        r = 1, for s > 2 it may be interior).  The candidates zoom in
        lockstep; four 4x shrinks resolve ~256x below the grid spacing, and
        re-evaluating the centre keeps the rounds monotone.
        """
        grid = self.margins_at(t, self.thetas, self.rs)
        ks = _peak_indices(grid.max(axis=1))
        js = np.argmax(grid[ks], axis=1)
        rows = np.arange(len(ks))
        values, thetas, rs = grid[ks, js], self.thetas[ks], self.rs[js]
        d_theta = 2.0 * np.pi / len(self.thetas)
        d_r = 1.0 / (len(self.rs) - 1)
        for _ in range(4):
            ths = thetas[:, None] + np.linspace(-d_theta, d_theta, 9)
            rrs = np.clip(rs[:, None] + np.linspace(-d_r, d_r, 9), 0.0, 1.0)
            sub = self.margins_at(t, ths, rrs).reshape(len(ks), -1)
            i, j = np.divmod(np.argmax(sub, axis=1), 9)
            thetas, rs = ths[rows, i], rrs[rows, j]
            values = np.maximum(values, sub[rows, 9 * i + j])
            d_theta /= 4.0
            d_r /= 4.0
        k = int(np.argmax(values))
        return float(values[k]), float(thetas[k]), float(rs[k])

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
        order = _peak_indices(mu, floor=float(mu.max()) * (1.0 - d_theta ** 2))
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


def cs_membership(a, s: float, grid=(90, 50)) -> CsMembership:
    """Decide A in C_s on a (theta, r) grid over the unit disk.

    H(r, theta) = ((2-s)/s) r^2 A*A + ((s-1)/s) r (e^{i theta} A + e^{-i theta} A*) - I;
    membership holds iff the maximum of lambda_max(H), over the grid sharpened
    by lattice zooms around its leading peaks (see ``_CsKernel.max_margin``),
    stays <= 1e-8, the membership tolerance ``ws_radius`` certifies with.
    The r-grid covers [0, 1] even for s < 2 (where the supremum sits at r = 1)
    so that one code path also serves s > 2, where (2-s)/s < 0.
    """
    kernel = _CsKernel(as_matrix(a), s, grid)
    margin, theta, r = kernel.max_margin(1.0)
    _, vecs = np.linalg.eigh(kernel.test_matrices(1.0, [theta], [r])[0, 0])
    return CsMembership(member=margin <= _MEMBERSHIP_TOL, margin=margin, theta=theta,
                        r=r, vector=vecs[:, -1], tol=_MEMBERSHIP_TOL)


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


def ws_radius(a, s: float, tol: float = 1e-6, grid=(90, 50)) -> OperatorRadiusResult:
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
        return max(kernel.max_margin(t)[0], witness(t))

    lo = mu - 0.45 * tol
    if lo <= floor or witness(lo) <= _MEMBERSHIP_TOL:
        lo = floor
    # lo >= floor, and for s > 2 the r-grid accepts tiny t, so hi must not
    # follow an estimate that fell below the floor
    hi = max(lo, min(ceiling, mu + 0.45 * tol))
    if margin(hi) > _MEMBERSHIP_TOL:
        hi = ceiling
        if margin(hi) > _MEMBERSHIP_TOL:
            raise BisectionError(
                f"membership oracle rejects the upper bracket t={hi:.6g} for s={s}")
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) <= _MEMBERSHIP_TOL:
            hi = mid
        else:
            lo = mid
        iters += 1
    return OperatorRadiusResult(s=float(s), radius=0.5 * (lo + hi),
                                bracket=hi - lo, lo=lo, hi=hi, iterations=iters)
