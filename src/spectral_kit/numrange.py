"""Numerical range geometry, numerical radius, and operator radii w_s.

The numerical range W(A) is handled exclusively through its support function
p(theta) = lambda_max(re(e^{-i theta} A)); convexity of W(A) is a theorem and
is not re-verified.  A sample needs only the top eigenpair of
re(e^{-i theta} A) = cos(theta) H + sin(theta) K, with H and K the Hermitian
and skew-Hermitian parts of A: the top eigenvalue is p(theta) and the top
eigenvector x gives the boundary point <A x, x> (Johnson 1978).  Since
re(e^{-i (theta + pi)} A) = -re(e^{-i theta} A), the bottom eigenpair of one
angle is the top eigenpair of the opposite angle, so ``support_profile``
solves only the first half of an even grid (``_extreme_eigenpairs``: one
LAPACK ``zhetrd`` reduction per angle, read at both ends of its
tridiagonal, at n >= 13, and a stacked ``eigh`` below, where per-call
overhead dominates).  ``numerical_radius`` and ``dist_origin`` start from
the same halving, on eigenvalues alone.  ``support_profile`` memoizes the
last 8 profiles, keyed by grid size and matrix content (an in-place edit
makes a new key), so the callers that sample W(A) of one matrix, all on 256
angles, share one sweep.  Memoized arrays are read-only.
The support lines at the sampled angles cut out an outer polygon that
contains W(A) (``_outer_vertices``); ``outer_gauge_bracket`` bisects it where
it decides how far a convex set must grow to hold W(A).

Class membership for the Sz.-Nagy--Foias families C_s is decided on the test
matrix H(r, theta) = ca r^2 A*A + cb r M(theta) - I over the unit disk
zeta = r e^{i theta}; here ca = (2-s)/s, cb = (s-1)/s and M(theta) =
e^{i theta} A + e^{-i theta} A*.  The test is exact in r for every s: along
an angle, H is singular exactly where 1/r is a real eigenvalue of a 2n x 2n
companion matrix, and its inertia is constant in between, so one lambda_max
per sub-interval decides every r at once.  The operator radius w_s is
computed directly as the maximum over angles of the largest positive real
eigenvalue of that companion, and the membership test reads the companion
eigenvalues at the angles that maximum search solved.  The result is then
bracketed: ``lo`` carries a violation witness of the membership test (or is
the a-priori bound max(rho(A), ||A||/s)), and ``hi`` passed the membership
test.  Bisection with that test runs only as a fallback when either check
fails, and ``iterations`` counts its steps.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstemr, zhetrd, zunmqr

from .matrixcore import as_matrix

__all__ = [
    "SupportProfile",
    "CsMembership",
    "OperatorRadiusResult",
    "BisectionError",
    "support_profile",
    "support_value",
    "outer_gauge_bracket",
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
# start angles of the C_s peak search; the membership test reads the angles it
# solves.  Only the first half, in [0, pi), is solved: the roots at the
# antipodal grid angle theta + pi are the negated roots at theta
_CS_GRID = 90
# a companion eigenvalue within this of the real axis, relative to its
# modulus, cuts the r-range of the membership test
_ROOT_IMAG = 1e-3
# the most recently sampled support profiles: (n_grid, shape, bytes) -> profile
_PROFILE_MEMO: OrderedDict = OrderedDict()
_PROFILE_MEMO_SIZE = 8
# from this n on, one zhetrd reduction per angle, read at both ends of its
# tridiagonal, beats one stacked eigh over the angles
_TRIDIAG_MIN_N = 13
# LAPACK's safe range for the largest entry of a Hermitian matrix (zheevr's
# rmin and rmax); outside it the extreme-eigenpair kernel scales A first
_SAFE_MIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_SAFE_MAX = min(1.0 / _SAFE_MIN, 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))
# outer_gauge_bracket bisects an angular interval while its outer vertex
# exceeds the Rayleigh points by more than this, relative, and stops before
# the angles would pass twice those of the 256-angle profile it starts from
_OUTER_GAP = 1e-9
_OUTER_MAX_ANGLES = 512


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


def _hermitian_extremes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (lambda_max, lambda_min) for a stack of Hermitian matrices, shape
    # (..., n, n): closed forms for n <= 2 (vectorized), LAPACK otherwise
    n = h.shape[-1]
    if n == 1:
        return h[..., 0, 0].real, h[..., 0, 0].real
    if n == 2:
        half_tr = (h[..., 0, 0].real + h[..., 1, 1].real) / 2.0
        gap = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0
        radius = np.sqrt(gap ** 2 + np.abs(h[..., 0, 1]) ** 2)
        return half_tr + radius, half_tr - radius
    lam = np.linalg.eigvalsh(h)
    return lam[..., -1], lam[..., 0]


def hermitian_eigmax(h: np.ndarray) -> np.ndarray:
    """lambda_max for a stack of Hermitian matrices, shape (..., n, n).

    Closed forms for n <= 2 (vectorized), LAPACK otherwise.
    """
    return _hermitian_extremes(h)[0]


def support_value(a, theta: float) -> float:
    """p(theta) for a single angle."""
    return float(hermitian_eigmax(_herm_parts(as_matrix(a), float(theta))))


def _extreme_eigenpairs(m: np.ndarray, thetas: np.ndarray):
    """Top eigenpairs of F(t) = cos(t) H + sin(t) K and of F(t + pi) = -F(t).

    H = (A + A*)/2 and K = (A - A*)/(2i) are exactly Hermitian.  One
    reduction per angle t serves both ends of the spectrum: the top pair of
    F(t + pi) is (-lambda_min, x_min) of F(t).  Below ``_TRIDIAG_MIN_N`` one
    stacked ``eigh`` gives both; from it on each F(t) is reduced by LAPACK
    ``zhetrd`` to a real tridiagonal T = Q* F Q, ``dstemr`` finds the two
    extreme eigenpairs of T, and one ``zunmqr`` applies Q to both vectors
    (what ``zunmtr`` does).  Where the largest entry of A lies outside
    LAPACK's safe range, A is scaled by a power of two first, as ``zheevr``
    does, so the scaling is exact.  Returns (values, witnesses) of shapes
    (2, k) and (2, k, n): row 0 holds p(t) and its unit eigenvector, row 1
    p(t + pi) and its own.
    """
    n = m.shape[0]
    big = float(np.abs(m).max())
    scale = 1.0
    if 0.0 < big < _SAFE_MIN or big > _SAFE_MAX:
        scale = math.ldexp(1.0, -math.frexp(big)[1])
        m = m * scale
    herm = (m + m.conj().T) / 2.0
    skew = (m - m.conj().T) * -0.5j
    cos, sin = np.cos(thetas), np.sin(thetas)
    values = np.empty((2, len(thetas)))
    witnesses = np.empty((2, len(thetas), n), dtype=complex)
    if n < _TRIDIAG_MIN_N:
        vals, vecs = np.linalg.eigh(cos[:, None, None] * herm + sin[:, None, None] * skew)
        values[0], values[1] = vals[:, -1], vals[:, 0]
        witnesses[0], witnesses[1] = vecs[:, :, -1], vecs[:, :, 0]
    else:
        # column-major parts make a column-major F, which zhetrd takes
        # without a copy; dstemr overwrites its off-diagonal, which has a
        # spare last entry, so it gets a copy in work
        herm, skew = np.asfortranarray(herm), np.asfortranarray(skew)
        work = np.zeros(n)
        ends = np.empty((n, 2), dtype=complex)
        for k in range(len(thetas)):
            refl, diag, off, tau, info = zhetrd(cos[k] * herm + sin[k] * skew, lower=1,
                                                overwrite_a=1)
            _check_info("zhetrd", info)
            for end, index in ((0, n), (1, 1)):
                work[:-1] = off
                _, w, z, info = dstemr(diag, work, 2, 0.0, 0.0, index, index)
                _check_info("dstemr", info)
                values[end, k] = w[0]
                ends[:, end] = z[:, 0]
            # Q = H(1) ... H(n-1) acts on rows 1: with the reflectors stored
            # below the subdiagonal
            ends[1:], _, info = zunmqr(b"L", b"N", refl[1:, :n - 1], tau, ends[1:], 2)
            _check_info("zunmqr", info)
            witnesses[:, k] = ends.T
    values[1] *= -1.0
    return values / scale, witnesses


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")


def support_profile(a, n_grid: int = 256) -> SupportProfile:
    """Sample the support function of W(A) on a uniform angle grid.

    Parameters
    ----------
    a : array_like, square.
    n_grid : number of angles, >= 8.

    Returns
    -------
    SupportProfile with values p(theta_k) and unit eigenvector witnesses.

    An even grid solves only its first n_grid/2 angles, each for both ends
    of the spectrum: angle k + n_grid/2 is angle k + pi, whose top
    eigenpair is (-lambda_min, x_min) at angle k.  An odd grid solves every
    angle and keeps the top ends.  Each solve is one LAPACK ``zhetrd``
    reduction read at both ends of its tridiagonal for n >= 13, and a
    stacked ``eigh`` below (``_extreme_eigenpairs``).  The last 8 profiles
    are memoized by grid size and matrix content, so an in-place edit of
    ``a`` between calls is sampled afresh.  The arrays are
    read-only and equal, bit for bit, to a fresh computation.
    """
    m = as_matrix(a)
    if n_grid < 8:
        raise ValueError("support grid must have at least 8 angles")
    key = (n_grid, m.shape, m.tobytes())
    if key in _PROFILE_MEMO:
        _PROFILE_MEMO.move_to_end(key)
        return _PROFILE_MEMO[key]
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    if n_grid % 2:
        values, witnesses = _extreme_eigenpairs(m, thetas)
        values, witnesses = values[0], witnesses[0]
    else:
        # angle k + n_grid/2 is angle k + pi: the bottom end of angle k
        values, witnesses = _extreme_eigenpairs(m, thetas[:n_grid // 2])
        values, witnesses = values.reshape(n_grid), witnesses.reshape(n_grid, -1)
    pts = np.einsum("ki,ij,kj->k", np.conj(witnesses), m, witnesses)
    prof = SupportProfile(thetas=thetas, values=values, witnesses=witnesses, points=pts)
    for arr in (prof.thetas, prof.values, prof.witnesses, prof.points):
        arr.setflags(write=False)
    _PROFILE_MEMO[key] = prof
    if len(_PROFILE_MEMO) > _PROFILE_MEMO_SIZE:
        _PROFILE_MEMO.popitem(last=False)
    return prof


def _outer_vertices(t1, p1, z1, t2, p2, z2) -> np.ndarray:
    """Vertices of the outer polygon of W(A), one per pair of support samples.

    A pair is two samples, at angles t1 < t2 (mod 2 pi, at most pi/2
    apart), of the support value p and its contact point z on the boundary
    of W(A).  Its vertex is where the support lines Re(e^{-i t} z) = p(t) of
    the two meet.  Every point of W(A) lies in all those half-planes, so
    W(A) lies in the convex hull of the vertices of consecutive samples
    around one turn (Johnson 1978).  The exact vertex lies on the line at t1
    no farther than |z2 - z1| ahead of z1 (the triangle of the two contact
    points and the vertex has the angle pi - (t2 - t1) at the vertex, so
    neither side is longer than the base), and the solve is clipped to that
    stretch: for a tiny gap, the rounding of p divided by the sine of the
    gap could otherwise throw it anywhere.
    """
    turn = np.exp(1j * t1)
    c, s = turn.real, turn.imag
    gap = np.exp(1j * np.mod(t2 - t1, 2.0 * np.pi))
    along = (p2 - p1 * gap.real) / gap.imag
    # in real arithmetic only, which rounds alike in numpy's array loops and
    # in scalar code: the line at t1 is along -> turn (p1 + i along)
    dx, dy = z2.real - z1.real, z2.imag - z1.imag
    start = z1.imag * c - z1.real * s
    along = np.clip(along, start, start + np.sqrt(dx * dx + dy * dy))
    return (p1 * c - along * s) + 1j * (p1 * s + along * c)


def outer_gauge_bracket(a, gauge) -> tuple[float, float]:
    """Bracket the largest value over W(A) of a convex gauge, where above 1.

    gauge maps an array of points to an array of values, and is meant as
    the gauge of a convex set X about an interior point, so that W(A) lies
    in X scaled by the largest value.  The lower end is the largest gauge
    of a Rayleigh point, which lies in W(A); the upper end the largest
    gauge of an outer-polygon vertex (``_outer_vertices``), which bounds it
    on W(A) by convexity, or the lower end if that is larger.  Both start
    from the 256-angle ``support_profile``.  Each round bisects, with one
    ``_extreme_eigenpairs`` call read at its top ends, every angular
    interval whose vertex gauge exceeds 1 (X holds the vertex), exceeds the
    lower end by more than ``_OUTER_GAP`` relative, and lies in the upper
    half of the excess of the worst vertex over the lower end.  It stops when no interval
    qualifies or can be split in floating point, or before a round would
    take the angles past ``_OUTER_MAX_ANGLES``.  That last stop is reached
    only where W(A) hugs a level set of gauge along an arc (the numerical
    range of a 2 x 2 or Jordan matrix against its own fitted ellipse):
    every vertex there overshoots by about the same relative amount,
    1/cos(delta/2) - 1 at angular spacing delta for a circle, and the
    bracket is left that wide (1.9e-5 at 512 angles) instead of sweeping
    ~70,000 angles.  Splitting the upper half first spends the angles where
    the overshoot is largest, near the flat sides of an eccentric ellipse.
    Returns (lower, upper).
    """
    m = as_matrix(a)
    prof = support_profile(m, 256)
    # the open intervals [t1, t2), with the support value p and contact
    # point z at either end, and the gauge g of their vertices; the rest
    # are settled, and only the largest of their gauges is kept
    t1, p1, z1 = prof.thetas, prof.values, prof.points
    t2, p2, z2 = np.append(t1[1:], 2.0 * np.pi + t1[0]), np.roll(p1, -1), np.roll(z1, -1)
    lower = float(np.max(gauge(z1)))
    g = gauge(_outer_vertices(t1, p1, z1, t2, p2, z2))
    settled, count = -np.inf, len(t1)
    while True:
        worst = max(settled, float(np.max(g, initial=-np.inf)))
        mid = (t1 + t2) / 2.0
        open_ = (g > max(1.0, lower * (1.0 + _OUTER_GAP))) & (t1 < mid) & (mid < t2)
        split = open_ & (g - lower >= (worst - lower) / 2.0)
        if not split.any() or count + np.count_nonzero(split) > _OUTER_MAX_ANGLES:
            return lower, max(lower, worst)
        settled = max(settled, float(np.max(g[~open_], initial=-np.inf)))
        keep = open_ & ~split
        tm = mid[split]
        pm, vecs = _extreme_eigenpairs(m, tm)
        pm, vecs = pm[0], vecs[0]
        zm = np.einsum("ki,ij,kj->k", np.conj(vecs), m, vecs)
        count += len(tm)
        # a split interval gives way to its halves [t1, tm) and [tm, t2)
        halves = (np.concatenate([t1[split], tm]), np.concatenate([p1[split], pm]),
                  np.concatenate([z1[split], zm]), np.concatenate([tm, t2[split]]),
                  np.concatenate([pm, p2[split]]), np.concatenate([zm, z2[split]]))
        gm = gauge(np.concatenate([zm, _outer_vertices(*halves)]))
        lower = max(lower, float(np.max(gm[:len(tm)])))
        t1, p1, z1, t2, p2, z2 = (np.concatenate([old[keep], new]) for old, new
                                  in zip((t1, p1, z1, t2, p2, z2), halves))
        g = np.concatenate([g[keep], gm[len(tm):]])


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
    # p(theta) on the uniform 256-angle grid from one stack of the 128 angles
    # in [0, pi): p(theta + pi) = -lambda_min(re(e^{-i theta} A))
    top, bottom = _hermitian_extremes(_herm_parts(a, 2.0 * np.pi * np.arange(128) / 256))
    return np.concatenate([top, -bottom])


def _angular_extremes(a: np.ndarray, signs, p: np.ndarray) -> list:
    # max over theta of sign * p(theta) for each sign, from the samples p on
    # a uniform grid of spacing h.  Every grid peak within |best| h^2 of the
    # best sample can still win, since p'' >= -p keeps a peak within
    # p h^2 / 8 of its nearest sample.  For w(A) several can; for
    # dist(0, W(A)) > 0 only the argmax is one, because the sublevel sets
    # of p are then arcs, so -p has one local maximum.  For real A,
    # p(-theta) = p(theta), so each peak is polished once, at its mirror
    # image in [0, pi] if it lies in (pi, 2 pi).
    grid = 2.0 * np.pi * np.arange(len(p)) / len(p)
    h = 2.0 * np.pi / len(p)
    real = not a.imag.any()
    out = []
    for sign in signs:
        vals = sign * p
        best = float(vals.max())
        ks = _peak_indices(vals, floor=best - abs(best) * h * h)
        if real:
            ks = np.unique(np.minimum(ks, -ks % len(p)))
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
    margin: float  # largest lambda_max(H(r, theta)) the test evaluated; <= tol means member
    theta: float
    r: float
    vector: np.ndarray
    tol: float


class _CsKernel:
    """Shared evaluator for C_s membership of A/t.

    With B = A*A, M(theta) = e^{i theta} A + e^{-i theta} A*, ca = (2-s)/s and
    cb = (s-1)/s, the test matrix at zeta = r e^{i theta} is
    H = ca u^2 B + cb u M(theta) - I with u = r/t.  ``test_matrices`` builds
    H at (theta, u) points and ``margins_at`` its lambda_max; ``peak``
    finds the scaling t at which the test first fails from the companion
    eigenproblem per angle.  M(theta + pi) = -M(theta), so the companion
    eigenvalues at theta + pi are those at theta negated, and ``peak``
    solves only the half of its grid in [0, pi).  ``peak`` keeps the
    companion eigenvalues of every grid angle and of every angle it solves
    (``root_thetas``, ``roots``), so the membership test reads them instead
    of solving them again.  A kernel serves one matrix and one s.
    """

    def __init__(self, a: np.ndarray, s: float):
        if s <= 0:
            raise ValueError("class parameter s must be positive")
        # peak reads grid angle k + _CS_GRID/2 (theta_k + pi) as the negated
        # roots of angle k, which needs the antipode of every grid angle on
        # the grid
        if _CS_GRID % 2:
            raise ValueError(f"the C_s start grid needs an even number of angles, not {_CS_GRID}")
        s = float(s)
        self.a = a
        self.ca = (2.0 - s) / s
        self.cb = (s - 1.0) / s
        self.n = a.shape[0]
        self.thetas = 2.0 * np.pi * np.arange(_CS_GRID) / _CS_GRID
        self.aha = a.conj().T @ a
        self.root_thetas = np.empty(0)
        self.roots = np.empty((0, 2 * self.n), dtype=complex)

    def _mstack(self, thetas) -> np.ndarray:
        ph = np.exp(1j * np.asarray(thetas, dtype=float))[..., None, None]
        return ph * self.a + np.conj(ph) * self.a.conj().T

    def test_matrices(self, thetas, us) -> np.ndarray:
        # H at the (theta, u) points of the broadcast of thetas and us,
        # shape (..., n, n)
        thetas, us = np.broadcast_arrays(np.asarray(thetas, dtype=float),
                                         np.asarray(us, dtype=float))
        u = us[..., None, None]
        h = self.ca * u ** 2 * self.aha + self.cb * u * self._mstack(thetas)
        idx = np.arange(self.n)
        h[..., idx, idx] -= 1.0
        return h

    def margins_at(self, thetas, us) -> np.ndarray:
        # lambda_max(H) at the (theta, u) points of the broadcast of thetas and us
        return hermitian_eigmax(self.test_matrices(thetas, us))

    def max_margin(self, t: float) -> tuple[float, float, float]:
        """Largest lambda_max(H) the membership test of A/t finds, with its (theta, r).

        ``exact_margin`` at every angle ``peak`` has solved the companion
        eigenproblem at, so ``peak`` must have run.
        """
        if not len(self.root_thetas):
            raise RuntimeError("the membership test reads the angles peak solves: run peak first")
        return self.exact_margin(t, self.root_thetas, self.roots)

    def exact_margin(self, t: float, thetas, roots) -> tuple[float, float, float]:
        """Membership test of A/t at the given angles, exact in r.

        roots holds the companion eigenvalues of each angle, one row per
        angle.  Along an angle, H(u) is singular exactly at u = 1/mu for
        the real eigenvalues mu, and H(0) = -I, so the inertia of H is
        constant between consecutive singular points: lambda_max(H) <= tol
        on all of (0, 1/t] exactly when it holds at one point of each
        sub-interval cut by the roots mu >= t, and at u = 1/t.  Every
        eigenvalue within ``_ROOT_IMAG`` (relative) of the real axis counts
        as a root, since rounding moves a double root off it by about
        sqrt(eps); an extra cut only adds a sample.  A sub-interval whose
        midpoint is positive but within tol is searched over u for its
        maximum before it passes.  All samples are one stacked
        ``hermitian_eigmax``.  Returns (lambda_max, theta, r = u t) of the
        worst sample.
        """
        top = 1.0 / t
        real = (np.abs(roots.imag) <= _ROOT_IMAG * np.abs(roots)) & (roots.real >= t)
        cuts = np.sort(np.where(real, 1.0 / np.where(real, roots.real, 1.0), np.inf), axis=1)
        edge = np.full((len(cuts), 1), np.inf)
        lower = np.concatenate([np.zeros_like(edge), cuts], axis=1)
        upper = np.minimum(np.concatenate([cuts, edge], axis=1), top)
        live = np.isfinite(lower)
        lower, upper = lower[live], upper[live]
        ths = np.concatenate([np.broadcast_to(thetas[:, None], live.shape)[live], thetas])
        us = np.concatenate([(lower + upper) / 2.0, np.full(len(thetas), top)])
        vals = self.margins_at(ths, us)
        close = np.flatnonzero((vals[:len(lower)] > 0.0) & (vals[:len(lower)] <= _MEMBERSHIP_TOL))
        if close.size:
            # to 1e-3 of the width: between two roots that leaves the
            # maximum found within about 1e-6 of the bump's height; a
            # sub-interval a few ulps wide (a root just above t) cannot
            # shrink by golden steps, so it stops there
            width = upper[close] - lower[close]
            tol = np.maximum(1e-3 * width, 8.0 * np.finfo(float).eps * upper[close])
            x, fx = _golden_max(lambda v: self.margins_at(ths[close], v),
                                lower[close], upper[close], tol=tol)
            better = fx > vals[close]
            us[close] = np.where(better, x, us[close])
            vals[close] = np.where(better, fx, vals[close])
        k = int(np.argmax(vals))
        return float(vals[k]), float(ths[k]), float(us[k] * t)

    def level_crossing(self, theta: float, mu: float, level: float):
        """Scaling t = 1/u at which lambda_max(H(theta, u)) reaches level past u = 1/mu.

        Three Newton steps from u = 1/mu, where lambda_max(H) is 0 for a
        crossing mu, with the derivative x* (2 ca u B + cb M(theta)) x of a
        simple top eigenvalue with unit eigenvector x.  None where
        lambda_max does not rise.
        """
        u = 1.0 / mu
        mst = self._mstack(theta)
        for _ in range(3):
            w, v = np.linalg.eigh(self.test_matrices(theta, u))
            x = v[:, -1]
            slope = float(np.real(np.conj(x) @ (2.0 * self.ca * u * self.aha + self.cb * mst) @ x))
            if slope <= 0.0:
                return None
            u += (level - w[-1]) / slope
        return 1.0 / u

    def crossing(self, thetas) -> np.ndarray:
        """mu*(theta) at the given angles from one stack of companion eigenproblems.

        lambda_max(H) first reaches 0 at u = 1/mu*, where mu* is the largest
        positive real eigenvalue of the companion [[0, I], [ca B, cb M]] of
        mu^2 I - cb mu M - ca B, or 0 where there is none.  The eigenvalues
        are kept in ``root_thetas`` and ``roots``.
        """
        thetas = np.asarray(thetas, dtype=float)
        return self._record(thetas, self._companion_roots(thetas))

    def _companion_roots(self, thetas) -> np.ndarray:
        # the companion eigenvalues, one row per angle.  At s = 2 (ca = 0)
        # the companion is block-triangular: the eigenvalues of cb M, then
        # n zeros
        n = self.n
        mst = self._mstack(thetas)
        if self.ca == 0.0:
            lam = np.linalg.eigvalsh(self.cb * mst)
            return np.concatenate([lam, np.zeros_like(lam)], axis=1)
        comp = np.zeros((len(mst), 2 * n, 2 * n), dtype=complex)
        comp[:, :n, n:] = np.eye(n)
        comp[:, n:, :n] = self.ca * self.aha
        comp[:, n:, n:] = self.cb * mst
        return np.linalg.eigvals(comp)

    def _record(self, thetas, ev) -> np.ndarray:
        # keeps the roots of the angles and returns their mu*.  Near-double
        # roots (the edge of a real-root window) carry rounding-level
        # imaginary parts, so "real" is decided with a loose tolerance; a
        # spurious root can only raise the estimate, which the witness check
        # in ws_radius then rejects.  At s = 2 every root is real, and mu* is
        # the Hermitian lambda_max(cb M), or 0
        scale = np.abs(ev).max(axis=1, keepdims=True)
        real = (np.abs(ev.imag) <= 1e-6 * scale) & (ev.real > 0)
        mu = np.where(real, ev.real, 0.0).max(axis=1)
        self.root_thetas = np.concatenate([self.root_thetas, thetas])
        self.roots = np.concatenate([self.roots, ev])
        return mu

    def peak(self, extra_thetas) -> tuple[float, float]:
        """Estimate max_theta mu*(theta) = w_s(A) and its angle.

        Starts from the grid angles plus ``extra_thetas`` (for large s the
        real-root window is a sliver of the circle around -arg lambda_k(A)
        that the grid misses).  One stack solves the grid angles in [0, pi)
        and ``extra_thetas``; grid angle k + ``_CS_GRID``/2 is kept, under
        its own grid value, with the negated roots of angle k, which are
        its companion eigenvalues.  mu* can have several near-equal peaks, so
        every local maximum of the start samples within step^2 (relative)
        of the best one is refined, at most ``_PEAK_CANDIDATES`` of them.
        The margin is 8x the s = 2 bound: there mu* is the support function
        p of the convex set W(A), and p'' >= -p keeps a peak within
        p step^2 / 8 of its nearest sample.  Each candidate gets nested
        9-point zooms, shrinking 4x per round; a zoom solves no angle that
        is already solved.  At s = 1 (cb = 0) the companion's eigenvalues
        +-sqrt(ca) sigma_i(A) do not depend on theta, and neither does H: the
        estimate is ||A||_2 at angle 0, the one angle kept, with no sweep.
        """
        if self.cb == 0.0:
            sigma = np.sqrt(self.ca) * np.linalg.svd(self.a, compute_uv=False)
            self.root_thetas = np.zeros(1)
            self.roots = np.concatenate([sigma, -sigma])[None, :].astype(complex)
            return 0.0, float(sigma[0])
        half = len(self.thetas) // 2
        solve = np.concatenate([
            self.thetas[:half], np.mod(np.asarray(extra_thetas, dtype=float), 2.0 * np.pi)])
        ev = self._companion_roots(solve)
        # M(theta + pi) = -M(theta), so mu solves the quadratic eigenproblem
        # at theta exactly when -mu solves it at theta + pi
        thetas = np.concatenate([solve, self.thetas[half:]])
        ev = np.concatenate([ev, -ev[:half]])
        by_angle = np.argsort(thetas, kind="stable")
        thetas = thetas[by_angle]
        mu = self._record(thetas, ev[by_angle])
        d_theta = 2.0 * np.pi / len(self.thetas)
        order = _peak_indices(mu, floor=float(mu.max()) * (1.0 - d_theta ** 2))
        centres, values = thetas[order], mu[order]
        offsets = np.linspace(-1.0, 1.0, 9)
        # a zoom point equal to an angle already solved (the round's centre,
        # and its outer points, which the round before also sampled) reads
        # its mu back; the new angles are solved in first-occurrence order
        solved = dict(zip(thetas.tolist(), mu.tolist()))
        for _ in range(_PEAK_ZOOMS):
            ths = centres[:, None] + d_theta * offsets[None, :]
            flat = ths.ravel().tolist()
            fresh = list(dict.fromkeys(t for t in flat if t not in solved))
            if fresh:
                solved.update(zip(fresh, self.crossing(np.array(fresh)).tolist()))
            sub = np.array([solved[t] for t in flat]).reshape(ths.shape)
            rows, j = np.arange(len(centres)), np.argmax(sub, axis=1)
            better = sub[rows, j] > values
            centres = np.where(better, ths[rows, j], centres)
            values = np.maximum(values, sub[rows, j])
            d_theta /= 4.0
        k = int(np.argmax(values))
        return float(centres[k]), float(values[k])


def cs_membership(a, s: float) -> CsMembership:
    """Decide A in C_s over the unit disk.

    H(r, theta) = ((2-s)/s) r^2 A*A + ((s-1)/s) r (e^{i theta} A + e^{-i theta} A*) - I;
    membership holds iff the largest lambda_max(H) the test finds (see
    ``_CsKernel.max_margin``) stays <= 1e-8, the membership tolerance
    ``ws_radius`` certifies with.  ``_CsKernel.peak`` first solves the
    companion eigenproblem at its angles, and the test is exact in r at
    each of them.
    """
    m = as_matrix(a)
    kernel = _CsKernel(m, s)
    kernel.peak(-np.angle(np.linalg.eigvals(m)))
    margin, theta, r = kernel.max_margin(1.0)
    _, vecs = np.linalg.eigh(kernel.test_matrices(theta, r))
    return CsMembership(member=margin <= _MEMBERSHIP_TOL, margin=margin, theta=theta,
                        r=r, vector=vecs[:, -1], tol=_MEMBERSHIP_TOL)


@dataclass(frozen=True)
class OperatorRadiusResult:
    """Bracketed value of w_s(A).

    radius is the bracket midpoint.  lo is witness-certified: either the
    a-priori bound max(rho(A), ||A||/s) (shrunk by 1e-9) or a scaling at
    which some tested (theta, r) point's lambda_max exceeds the membership
    tolerance, so lo < w_s(A).  hi passed the membership test, so scaling by
    hi is safe downstream.  That test is sampled in theta, at the angles at
    which the estimate has the companion eigenvalues (the 90 grid angles,
    45 solved and the antipodal 45 read as their negated roots, -arg
    lambda_k(A) and its zooms; angle 0 alone at s = 1), and is exact in r
    at each of them.  iterations counts the bisection steps of the fallback
    that runs only when the companion estimate fails either check; it is 0
    when the estimate is certified directly.
    """

    s: float
    radius: float
    bracket: float
    lo: float
    hi: float
    iterations: int


def ws_radius(a, s: float, tol: float = 1e-6) -> OperatorRadiusResult:
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
      pass the membership test, extended by the estimate's angle.

    Where lambda_max rises past the crossing too slowly for that witness
    (at large s its slope in u is about 2 rho(A)/s), the bracket is centred
    instead where lambda_max reaches the membership tolerance along the
    estimate's angle (``_CsKernel.level_crossing``), and both checks run
    there.  If hi fails, the bracket widens to the a-priori upper bound, and
    while it is wider than ``tol`` it is bisected with the same membership
    test; monotonicity in t (scaling by |lambda| <= 1 preserves C_s) is what
    makes the bisection valid.  No step solves a companion eigenproblem:
    the test reads the ones the estimate solved.  An upper bound the test
    rejects raises :class:`BisectionError`.
    """
    m = as_matrix(a)
    norm2 = float(np.linalg.norm(m, 2))
    if norm2 == 0.0:
        raise ValueError("w_s is undefined for the zero matrix")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    kernel = _CsKernel(m, s)
    eigs = np.linalg.eigvals(m)
    floor = max(float(np.abs(eigs).max()), norm2 / s) * (1.0 - 1e-9)
    ceiling = 2.0 * norm2 * max(1.0, 1.0 / s)
    theta, mu = kernel.peak(-np.angle(eigs))

    # lambda_max along the estimate's angle, where a narrow real-root window
    # (large s) can hide between grid angles; it is one of the angles the
    # estimate solved, so its roots are kept, and the membership test reads
    # it with all the others
    at = kernel.root_thetas == theta

    def witness(t):
        return kernel.exact_margin(t, kernel.root_thetas[at], kernel.roots[at])[0]

    def margin(t):
        return kernel.max_margin(t)[0]

    centre = mu
    lo = mu - 0.45 * tol
    held = lo > floor and witness(lo) > _MEMBERSHIP_TOL
    if lo > floor and not held:
        # lambda_max climbs past u = 1/mu-hat too slowly to clear the
        # membership tolerance within 0.45 tol (its slope in u is about
        # 2 rho(A)/s at large s): centre the bracket where it reaches the
        # tolerance along the estimate's angle instead
        centre = kernel.level_crossing(theta, mu, _MEMBERSHIP_TOL) or mu
        lo = centre - 0.45 * tol
        held = lo > floor and witness(lo) > _MEMBERSHIP_TOL
    if not held:
        lo = floor
    # lo >= floor, so hi must not follow an estimate that fell below it
    hi = max(lo, min(ceiling, centre + 0.45 * tol))
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
