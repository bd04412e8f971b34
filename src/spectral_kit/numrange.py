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
the same halving, on eigenvalues alone, and polish the grid peaks by
safeguarded Newton steps: the derivatives p' = x* B x and
p'' = -p + 2 sum_j |v_j* B x|^2 / (p - lambda_j), B = cos(theta) K -
sin(theta) H, come from the eigenpairs of one stacked ``eigh`` per round
(``_newton_peaks``).  ``support_profile`` memoizes the
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
per sub-interval decides every r at once.  The operator radius w_s is the
maximum over angles of mu*(theta), the largest positive real eigenvalue of
that companion.  For s <= 2, ca >= 0 makes lambda_max(H) convex in r, and
H = -I at r = 0, so A/t lies in C_s exactly when H(1/t, theta) <= 0 at
every theta.  There H(1/t, theta) = C + e^{i theta} D + e^{-i theta} D*, with
D = cb A/t and C = ca A*A/t^2 - I, is singular exactly where e^{i theta} is
an eigenvalue of the 2n x 2n pencil z^2 D + z C + D* (``_circle_pencil``),
so one eigenproblem decides a scaling at every angle (Byers 1988), and
``ws_radius`` finds w_s by the level-set iteration of Mengi & Overton
(2005).  For s > 2 the maximum is searched on an angle grid with zooms
(at s = 1, where nothing depends on theta, it is ||A||_2), and the
membership test reads the companion eigenvalues at the angles solved.  The
result is bracketed without a search: ``lo`` is the larger of the
a-priori bound max(rho(A), ||A||/s) and the exact witness bound
phi_s(x) <= w_s of the top eigenvector x of H at the estimate, and ``hi``
is a scaling that passed the test times 1 + tau, tau = 1e-8 the membership
tolerance.  For s <= 2 that puts A/hi in C_s at every angle, with the
status of a tolerance: no eigenvalue of its pencil lies within 1e-6 of the
unit circle.  For s > 2 the test holds at the solved angles.  The bracket
is about tau w_s wide.  Bisection with the same test runs only as a
fallback when the estimate fails it, and ``iterations`` counts its steps.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstemr, zhetrd, zunmqr

from .matrixcore import _safe_scale, as_matrix

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
# hi of the level-set path of ws_radius (s <= 2) needs every eigenvalue of
# its pencil at least this far off the unit circle
_CIRCLE_GAP = 1e-6
# the level-set iteration cuts the circle at every pencil eigenvalue within
# this of it.  An extra cut only adds a sample, but a missed one can hide a
# peak: where the level touches a local maximum of mu*, the double root there
# leaves the circle by about sqrt(rounding / curvature), 3e-6 on a real 4 x 4
# matrix, whose midpoint by symmetry lands on that local maximum
_LEVEL_CUT = 1e-3
# start angles and round limit of the level-set iteration
_LEVEL_START = 8
_LEVEL_ROUNDS = 32
# the most recently sampled support profiles: (n_grid, shape, bytes) -> profile
_PROFILE_MEMO: OrderedDict = OrderedDict()
_PROFILE_MEMO_SIZE = 8
# from this n on, one zhetrd reduction per angle, read at both ends of its
# tridiagonal, beats one stacked eigh over the angles
_TRIDIAG_MIN_N = 13
# outer_gauge_bracket bisects an angular interval while its outer vertex
# exceeds the Rayleigh points by more than this, relative, and stops before
# the angles would pass twice those of the 256-angle profile it starts from
_OUTER_GAP = 1e-9
_OUTER_MAX_ANGLES = 512
# a Newton step on a support-function peak whose predicted gain is below
# this, relative to the spectral scale, cannot move the reported value
_NEWTON_GAIN = 1e-3 * np.finfo(float).eps


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
    """p(theta) for a single angle.

    Outside LAPACK's safe range A is scaled by a power of two first (see
    ``_safe_scale``), so the n = 2 closed form cannot overflow; inside it
    nothing changes.
    """
    m = as_matrix(a)
    scale = _safe_scale(m)
    if scale != 1.0:
        m = m * scale
    return float(hermitian_eigmax(_herm_parts(m, float(theta)))) / scale


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
    scale = _safe_scale(m)
    if scale != 1.0:
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
    with np.errstate(over="ignore"):
        sq = dx * dx + dy * dy
    # np.hypot only where the squares overflow: it rounds differently
    reach = np.where(np.isfinite(sq), np.sqrt(sq), np.hypot(dx, dy))
    along = np.clip(along, start, start + reach)
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


def _zoom_max(fun, centres, values, half, rounds: int, lo=-np.inf, hi=np.inf):
    """Nested 9-point zooms towards maxima of fun, all centres in lockstep.

    Each round evaluates the 8 points centre + half linspace(-1, 1, 9) other
    than the centre itself, clipped to [lo, hi], for every centre in one
    call of fun (a 1-D array of points to their values); a centre moves only
    to a point strictly better than the value it holds, and half shrinks
    4x.  The centre is not evaluated again: its value is the one given, or
    the one it moved with.  half, lo and hi are scalars or one entry per
    centre.  Returns (centres, values), never below the values given.
    """
    centres, values = np.array(centres, dtype=float), np.array(values, dtype=float)
    offsets, rows = np.delete(np.linspace(-1.0, 1.0, 9), 4), np.arange(len(centres))
    for _ in range(rounds):
        pts = np.clip(centres[:, None] + np.reshape(half, (-1, 1)) * offsets,
                      np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1)))
        sub = fun(pts.ravel()).reshape(pts.shape)
        j = np.argmax(sub, axis=1)
        better = sub[rows, j] > values
        centres = np.where(better, pts[rows, j], centres)
        values = np.where(better, sub[rows, j], values)
        half = half / 4.0
    return centres, values


def _polish_peaks(fun, grid: np.ndarray, centers, values, periodic: bool):
    """Polish sampled peaks by stacked 9-point zooms (``_zoom_max``).

    It finishes boundary suprema, ``torus_sup``, ``_disk_sup``,
    ``fab_rational``'s Blaschke maximum, and the support-function peaks
    whose top eigenvalue is not simple.

    grid is the sample grid (2 pi k / m if periodic, else linspace(lo, hi, m));
    each centre, with its sampled value, is zoomed from +- one grid spacing,
    clipped to [lo, hi] unless periodic, until its bracket is within 1e-12,
    and never reports below that value.  fun maps an array to an array.
    Returns (points, values), one entry per centre.
    """
    step = grid[1] - grid[0]
    lo, hi = (-np.inf, np.inf) if periodic else (grid[0], grid[-1])
    # round r leaves a bracket of width step / (2 4^(r - 1))
    rounds = 1 + math.ceil(math.log(step / 2e-12, 4))
    return _zoom_max(fun, centers, values, step, rounds, lo, hi)


def _peak_indices(vals: np.ndarray, floor: float = -np.inf) -> np.ndarray:
    # periodic local maxima of vals not below floor, best first, at most
    # _PEAK_CANDIDATES of them; the global argmax is always one
    local = (vals >= np.roll(vals, 1)) & (vals > np.roll(vals, -1)) & (vals >= floor)
    local[int(np.argmax(vals))] = True
    return np.flatnonzero(local)[np.argsort(-vals[local])][:_PEAK_CANDIDATES]


def _grid_support(a: np.ndarray) -> np.ndarray:
    # p(theta) on the uniform 256-angle grid from one stack of the 128 angles
    # in [0, pi): p(theta + pi) = -lambda_min(re(e^{-i theta} A)).  Outside
    # LAPACK's safe range A is scaled first, which the n = 2 closed form
    # needs too: it squares entries
    scale = _safe_scale(a)
    top, bottom = _hermitian_extremes(
        _herm_parts(a * scale, 2.0 * np.pi * np.arange(128) / 256))
    return np.concatenate([top, -bottom]) / scale


def _newton_peaks(herm: np.ndarray, skew: np.ndarray, signs, centres, h: float):
    """Safeguarded Newton ascent to peaks of sign * p(theta), in lockstep.

    herm and skew are H and K, signs and centres hold one entry per peak,
    and each peak lies in its bracket [c - h, c + h].  One stacked ``eigh``
    per round gives, at every live angle t, all eigenpairs (lambda_j, v_j)
    of F(t) = cos t H + sin t K.  F' = B = cos t K - sin t H and F'' = -F,
    so the top eigenpair (p, x) gives

        p' = x* B x,   p'' = -p + 2 sum_{j != top} |v_j* B x|^2 / (p - lambda_j).

    Each evaluation shrinks the bracket to the side sign * p' points to.
    The Newton point t - p'/p'' is taken where sign * p'' < 0, it lies
    inside the bracket and it is at most half the step before last
    (``rtsafe``'s rule, which keeps the shrinking at least linear);
    otherwise the bracket is bisected.  A peak is done when its bracket is
    within 1e-12, when p' = 0, or when sign * p'' < 0 and the Newton
    step's predicted gain p'^2 / (2 |p''|) is below ``_NEWTON_GAIN`` of the
    spectral scale, where the step cannot move the value (it may be below
    an ulp of t) and rounding in p' would only jitter it.  The formula
    needs a simple top eigenvalue: a peak whose top gap is within 1e-8 of
    the spectral scale leaves the ascent and is flagged.
    Returns (the largest sign * p evaluated per peak, the flags).
    """
    signs = np.asarray(signs, dtype=float)
    theta = np.asarray(centres, dtype=float)
    lo, hi = theta - h, theta + h
    step, step_old = np.full(len(theta), 2.0 * h), np.full(len(theta), 2.0 * h)
    best = np.full(len(theta), -np.inf)
    multiple = np.zeros(len(theta), dtype=bool)
    live = np.ones(len(theta), dtype=bool)
    while live.any():
        idx = np.flatnonzero(live)
        t, sign = theta[idx], signs[idx]
        cos, sin = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        lam, vecs = np.linalg.eigh(cos * herm + sin * skew)
        p = lam[:, -1]
        best[idx] = np.maximum(best[idx], sign * p)
        coef = np.einsum("kji,kjl,kl->ki", vecs.conj(), cos * skew - sin * herm, vecs[:, :, -1])
        spectral = np.maximum(np.abs(lam[:, 0]), np.abs(p))
        second = lam[:, -2] if lam.shape[1] > 1 else -np.inf
        simple = p - second > 1e-8 * spectral
        gaps = np.where(simple[:, None], p[:, None] - lam[:, :-1], 1.0)
        d1 = sign * coef[:, -1].real
        d2 = sign * (2.0 * np.sum(np.abs(coef[:, :-1]) ** 2 / gaps, axis=1) - p)
        lo[idx] = np.where(d1 > 0.0, t, lo[idx])
        hi[idx] = np.where(d1 < 0.0, t, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = -d1 / d2
        ok = (d2 < 0.0) & (t + newton > lo[idx]) & (t + newton < hi[idx]) \
            & (2.0 * np.abs(newton) <= step_old[idx])
        new = np.where(ok, t + newton, (lo[idx] + hi[idx]) / 2.0)
        step_old[idx], step[idx] = step[idx], np.abs(new - t)
        theta[idx] = new
        # p' = 0 exactly leaves no side to shrink to, so the point stands
        settled = (d1 == 0.0) | (d2 < 0.0) & (np.abs(d1 * newton) <= 2.0 * _NEWTON_GAIN * spectral)
        multiple[idx] = ~simple
        live[idx] = simple & ~settled & (hi[idx] - lo[idx] > 1e-12)
    return best, multiple


def _angular_extremes(a: np.ndarray, signs, p: np.ndarray) -> list:
    # max over theta of sign * p(theta) for each sign, from the samples p on
    # a uniform grid of spacing h.  Every grid peak within |best| h^2 of the
    # best sample can still win, since p'' >= -p keeps a peak within
    # p h^2 / 8 of its nearest sample.  For w(A) several can; for
    # dist(0, W(A)) > 0 only the argmax is one, because the sublevel sets
    # of p are then arcs, so -p has one local maximum.  For real A,
    # p(-theta) = p(theta), so each peak is polished once, at its mirror
    # image in [0, pi] if it lies in (pi, 2 pi).  The peaks of every sign
    # are polished together by Newton steps (``_newton_peaks``), on A scaled
    # as ``_safe_scale`` says, so that the squares in p'' cannot overflow; a
    # peak whose top eigenvalue is not simple takes the zoom polish
    # (``_polish_peaks``) instead, on the same A; no result is below its sample.
    grid = 2.0 * np.pi * np.arange(len(p)) / len(p)
    h = 2.0 * np.pi / len(p)
    real = not a.imag.any()
    peaks = []
    for sign in signs:
        vals = sign * p
        best = float(vals.max())
        ks = _peak_indices(vals, floor=best - abs(best) * h * h)
        if real:
            ks = np.unique(np.minimum(ks, -ks % len(p)))
        peaks.append((sign, ks, vals[ks]))
    scale = _safe_scale(a)
    m = a * scale
    owner = np.concatenate([np.full(len(ks), i) for i, (_, ks, _) in enumerate(peaks)])
    polished, multiple = _newton_peaks(
        (m + m.conj().T) / 2.0, (m - m.conj().T) * -0.5j,
        np.concatenate([np.full(len(ks), sign) for sign, ks, _ in peaks]),
        np.concatenate([grid[ks] for _, ks, _ in peaks]), h)
    polished /= scale
    out = []
    for i, (sign, ks, sampled) in enumerate(peaks):
        mine = owner == i
        found = max(float(sampled.max()), float(polished[mine].max()))
        zoom = multiple[mine]
        if zoom.any():
            _, values = _polish_peaks(
                lambda t: sign * hermitian_eigmax(_herm_parts(m, t)),
                grid, grid[ks[zoom]], sampled[zoom] * scale, periodic=True)
            found = max(found, float(values.max()) / scale)
        out.append(found)
    return out


def numerical_radius(a) -> float:
    """w(A) = max_theta p(theta): every grid peak that can still win, polished by Newton steps."""
    m = as_matrix(a)
    if not m.any():
        return 0.0
    return _angular_extremes(m, [1.0], _grid_support(m))[0]


def dist_origin(a) -> float:
    """Distance from 0 to W(A): max(0, max_theta(-p(theta))).

    Where W(A) is a segment, the peak of -p is a kink at which the bottom
    eigenvalue is double; the Newton polish leaves it to the zoom, whose
    1e-12 bracket in theta times the kink's slope leaves the value low by
    a few 1e-13 relative: 8.4e-14 (1.9e-13 relative) below the distance
    0.444122366631377 for diag(e^{10ih}, (1 + 1e-6) e^{100.5ih}),
    h = 2 pi/256, against a 50-digit reference.
    """
    m = as_matrix(a)
    return max(0.0, _angular_extremes(m, [-1.0], _grid_support(m))[0])


def _circle_pencil(d: np.ndarray, c: np.ndarray):
    """Eigenvalues z of the pencil z^2 D + z C + D* and their distance to the unit circle.

    At z = e^{i theta} the pencil is z F(theta), F(theta) = C + e^{i theta} D
    + e^{-i theta} D*, so for Hermitian C, F(theta) is singular exactly at
    the eigenvalues of modulus 1 (Byers 1988; Mengi & Overton 2005).  QZ
    solves [[0, I], [-D*, -C]] v = z [[I, 0], [0, D]] v, backward stable
    whatever the conditioning of D, and the infinite eigenvalues of a
    singular D are dropped.  A singular pencil, whose determinant vanishes
    for every z, gives nan.  Returns (z, ||z| - 1|).
    """
    n = d.shape[0]
    left = np.zeros((2 * n, 2 * n), dtype=complex)
    left[:n, n:] = np.eye(n)
    left[n:, :n], left[n:, n:] = -d.conj().T, -c
    right = np.eye(2 * n, dtype=complex)
    right[n:, n:] = d
    z = scipy.linalg.eigvals(left, right)
    z = z[~np.isinf(z)]
    return z, np.abs(np.abs(z) - 1.0)


def _mu_star(ev: np.ndarray) -> np.ndarray:
    # mu* per row of companion eigenvalues: the largest positive real one,
    # or 0.  Near-double roots (the edge of a real-root window) carry
    # rounding-level imaginary parts, so "real" is decided with a loose
    # tolerance; a spurious root can only raise the estimate above the
    # witness bound of ws_radius, whose bisection then closes the gap.  At
    # s = 2 every root is real, and mu* is the Hermitian lambda_max(cb M), or 0
    scale = np.abs(ev).max(axis=1, keepdims=True)
    real = (np.abs(ev.imag) <= 1e-6 * scale) & (ev.real > 0)
    return np.where(real, ev.real, 0.0).max(axis=1)


def _arc_midpoints(angles: np.ndarray) -> np.ndarray:
    # midpoints of the arcs the given angles cut the circle into (none for none)
    ang = np.sort(np.mod(angles, 2.0 * np.pi))
    return (ang + np.append(ang[1:], ang[:1] + 2.0 * np.pi)) / 2.0


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
    of solving them again.  For s <= 2, s != 1, ``level_peak`` finds that
    scaling instead by level-set iteration on the unit-circle pencil of H
    (``pencil``), and ``level_test`` decides a scaling at every angle.  A
    kernel serves one matrix and one s.
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
        self.s = s
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
        maximum before it passes, by five 9-point zooms over it
        (``_zoom_max``), to 1/1024 of its width.  The other samples are one
        stacked ``hermitian_eigmax``.  Returns (lambda_max, theta, r = u t)
        of the worst sample.
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
        # 1/1024 of the width leaves the maximum within about 1e-6 of a
        # bump's height; blocks of len(us) // 9 keep each stack within len(us)
        block = max(1, len(us) // 9)
        for start in range(0, close.size, block):
            i = close[start:start + block]
            us[i], vals[i] = _zoom_max(
                lambda v: self.margins_at(ths[i, None], v.reshape(len(i), -1)).ravel(),
                us[i], vals[i], (upper[i] - lower[i]) / 2.0, 5, lower[i], upper[i])
        k = int(np.argmax(vals))
        return float(vals[k]), float(ths[k]), float(us[k] * t)

    def witness_bound(self, theta: float, t: float) -> float:
        """phi_s(x) <= w_s(A) for x the unit top eigenvector of H(theta, u = 1/t).

        With z = x* A x and b = ||A x||^2, the largest x* H x over theta is
        q(u) = ca u^2 b + 2 |cb| |z| u - 1.  Where D = cb^2 |z|^2 + ca b >= 0,
        q has the root u = 1/phi_s(x), phi_s(x) = |cb| |z| + sqrt(D), and is
        positive just past it, so A/t' is not in C_s for any t' < phi_s(x).
        D is computed as (b - (s - 1)^2 ||A x - z x||^2) / s^2, which avoids
        the cancellation of its two terms at large s; it is >= 0 for s <= 2.
        At a crossing t = mu*(theta), x*Hx = 0 there, so q(1/t) >= 0 and
        phi_s(x) >= t.  0 where D < 0 (no bound from x).
        """
        _, vecs = np.linalg.eigh(self.test_matrices(theta, 1.0 / t))
        x = vecs[:, -1]
        ax = self.a @ x
        z = np.vdot(x, ax)
        res = ax - z * x
        d = (np.vdot(ax, ax).real - (self.s - 1.0) ** 2 * np.vdot(res, res).real) / self.s ** 2
        return abs(self.cb) * abs(z) + math.sqrt(d) if d >= 0.0 else 0.0

    def crossing(self, thetas) -> np.ndarray:
        """mu*(theta) at the given angles from one stack of companion eigenproblems.

        lambda_max(H) first reaches 0 at u = 1/mu*, where mu* is the largest
        positive real eigenvalue of the companion [[0, I], [ca B, cb M]] of
        mu^2 I - cb mu M - ca B, or 0 where there is none.
        """
        return _mu_star(self._companion_roots(np.asarray(thetas, dtype=float)))

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
        # keeps the roots of the angles for the membership test and returns
        # their mu*
        self.root_thetas = np.concatenate([self.root_thetas, thetas])
        self.roots = np.concatenate([self.roots, ev])
        return _mu_star(ev)

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
        p step^2 / 8 of its nearest sample.  Each candidate gets
        ``_PEAK_ZOOMS`` rounds of the 9-point zoom (``_zoom_max``) from +-
        one grid step, 4x finer per round; a zoom solves no angle that is
        already solved.  At s = 1 (cb = 0) the companion's eigenvalues
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
        # a zoom point equal to an angle already solved (the round's outer
        # points, which the round before also sampled) reads its mu back;
        # the new angles are solved in first-occurrence order
        solved = dict(zip(thetas.tolist(), mu.tolist()))

        def crossings(ths):
            flat = ths.tolist()
            fresh = list(dict.fromkeys(t for t in flat if t not in solved))
            if fresh:
                fresh_thetas = np.array(fresh)
                mu = self._record(fresh_thetas, self._companion_roots(fresh_thetas))
                solved.update(zip(fresh, mu.tolist()))
            return np.array([solved[t] for t in flat])

        centres, values = _zoom_max(crossings, thetas[order], mu[order], d_theta, _PEAK_ZOOMS)
        k = int(np.argmax(values))
        return float(centres[k]), float(values[k])

    def pencil(self, t: float):
        """``_circle_pencil`` of H(theta, 1/t) = C + e^{i theta} D + e^{-i theta} D*.

        D = cb A/t and C = ca A*A/t^2 - I.
        """
        c = self.ca / t ** 2 * self.aha - np.eye(self.n)
        return _circle_pencil(self.cb / t * self.a, c)

    def level_peak(self, extra_thetas, floor: float) -> tuple[float, float]:
        """Estimate w_s(A) = max_theta mu*(theta) for s <= 2, s != 1, by level-set iteration.

        For ca >= 0, lambda_max(H(theta, u)) is convex in u and -1 at u = 0,
        so mu*(theta) > t exactly where lambda_max(H(theta, 1/t)) > 0, and
        that set's ends are among the angles of the unit-modulus
        eigenvalues of ``pencil(t)``.  The iteration (Mengi & Overton 2005)
        starts at the larger of floor and the best mu* of ``_LEVEL_START``
        grid angles and ``extra_thetas``; each round cuts the circle at the
        pencil eigenvalues within ``_LEVEL_CUT`` of it, evaluates mu* at
        the arc midpoints (``crossing``, one stack) and raises t to the
        largest.  It stops when no eigenvalue is that close, when t stops
        rising, after ``_LEVEL_ROUNDS`` rounds, or when the pencil is
        singular (nan): then mu* is constant at the level, as for a Jordan
        block, and the level is w_s.  Returns the best (theta, mu*) found.
        """
        thetas = np.concatenate([2.0 * np.pi * np.arange(_LEVEL_START) / _LEVEL_START,
                                 np.mod(np.asarray(extra_thetas, dtype=float), 2.0 * np.pi)])
        mu = self.crossing(thetas)
        k = int(np.argmax(mu))
        theta, best = float(thetas[k]), float(mu[k])
        level = max(best, floor)
        for _ in range(_LEVEL_ROUNDS):
            z, dist = self.pencil(level)
            if np.isnan(z).any() or not (dist <= _LEVEL_CUT).any():
                break
            mids = _arc_midpoints(np.angle(z[dist <= _LEVEL_CUT]))
            mu = self.crossing(mids)
            k = int(np.argmax(mu))
            if not mu[k] > level:
                break
            theta, best = float(mids[k]), float(mu[k])
            level = best
        return theta, best

    def level_test(self, t: float) -> tuple[bool, bool, float]:
        """Does A/hi lie in C_s at every angle, hi = t (1 + tau), for s <= 2, s != 1?

        Passes when no eigenvalue of ``pencil(hi)`` lies within
        ``_CIRCLE_GAP`` of the unit circle, so that H(theta, 1/hi) is
        nonsingular and keeps its inertia at every theta, and
        lambda_max(H(0, 1/hi)) < 0; by convexity in u that puts A/hi in
        C_s.  Rejects t when lambda_max(H(theta, 1/t)) > tau at theta = 0 or
        at the midpoint of an arc that the eigenvalues within ``_LEVEL_CUT``
        of the circle cut, which puts t below w_s.  Neither may hold, when
        hi lies within rounding of w_s.  Returns (passes, rejects, the angle
        of the largest of those lambda_max(H(theta, 1/t))).
        """
        hi = t * (1.0 + _MEMBERSHIP_TOL)
        z, dist = self.pencil(hi)
        thetas = np.concatenate([[0.0], _arc_midpoints(np.angle(z[dist <= _LEVEL_CUT]))])
        vals = self.margins_at(np.concatenate([[0.0], thetas]),
                               np.concatenate([[1.0 / hi], np.full(len(thetas), 1.0 / t)]))
        # nan (a singular pencil) is never more than the gap off the circle
        passes = bool((dist > _CIRCLE_GAP).all()) and vals[0] < 0.0
        k = int(np.argmax(vals[1:]))
        return passes, bool(vals[1 + k] > _MEMBERSHIP_TOL), float(thetas[k])


def cs_membership(a, s: float) -> CsMembership:
    """Decide A in C_s over the unit disk.

    H(r, theta) = ((2-s)/s) r^2 A*A + ((s-1)/s) r (e^{i theta} A + e^{-i theta} A*) - I;
    membership holds iff the largest lambda_max(H) the test finds (see
    ``_CsKernel.max_margin``) stays <= 1e-8, the membership tolerance
    ``ws_radius`` certifies with.  ``_CsKernel.peak`` first solves the
    companion eigenproblem at its angles, and the test is exact in r at
    each of them.  It runs on c A at t = c, c from ``_safe_scale`` (1 inside
    LAPACK's safe range); for a huge A (c < 1) it stops at u = r/c = 2^200,
    where H is finite: a crossing past it needs a companion root of c A
    below 2^-200, far below the rounding of its roots of order 1.
    """
    m = as_matrix(a)
    scale = float(_safe_scale(m))
    kernel = _CsKernel(m * scale, s)
    kernel.peak(-np.angle(np.linalg.eigvals(kernel.a)))
    t = max(scale, 2.0 ** -200)
    margin, theta, r = kernel.max_margin(t)
    _, vecs = np.linalg.eigh(kernel.test_matrices(theta, r / t))
    return CsMembership(member=margin <= _MEMBERSHIP_TOL, margin=margin, theta=theta,
                        r=r / t * scale, vector=vecs[:, -1], tol=_MEMBERSHIP_TOL)


@dataclass(frozen=True)
class OperatorRadiusResult:
    """Bracketed value of w_s(A).

    radius is the bracket midpoint.  lo is a lower bound with no tolerance:
    the larger of the a-priori bound max(rho(A), ||A||/s) (shrunk by 1e-9)
    and phi_s(x) of one unit vector x (``_CsKernel.witness_bound``), or a
    scaling the test rejected.  hi = t (1 + tau), tau = 1e-8, for a scaling
    t that passed the test.  For s <= 2, s != 1, that puts A/hi in C_s at
    every angle, with the status of a tolerance: no eigenvalue of the pencil
    of H(1/hi, theta) lies within 1e-6 of the unit circle, and
    lambda_max(H) < 0 at theta = 0 (``_CsKernel.level_test``).  At s = 1,
    where H does not depend on theta, t passed the membership test at
    tolerance tau at angle 0, which puts A/hi in C_1 exactly.  For s > 2 t
    passed the membership test at the angles the peak search solved (the 90
    grid angles, 45 solved and the antipodal 45 read as their negated
    roots, -arg lambda_k(A) and the zooms), exact in r at each of them, and
    hi has the status of the tolerance.  The bracket is about tau w_s(A)
    wide, whatever the tolerance asked.
    iterations counts the bisection steps of the fallback that runs only
    when the estimate fails its own test or lies more than the tolerance
    above lo; it is 0 when the estimate is bracketed directly.
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
    :class:`_CsKernel`).  The estimate mu-hat, at the angle theta-hat, is a
    crossing mu*(theta-hat) from one companion eigenproblem per angle.  For
    s <= 2, s != 1, it comes from the level-set iteration
    (``_CsKernel.level_peak``: one 2n x 2n pencil per round, no angle grid)
    and the test is ``_CsKernel.level_test``, which decides hi at every
    angle; otherwise from the peak search (``_CsKernel.peak``) and the
    membership test at the angles it solved (``_CsKernel.max_margin``).
    The estimate is bracketed directly:

    * lo = max(max(rho(A), ||A||/s) (1 - 1e-9), phi_s(x)), with x the unit
      top eigenvector of H(theta-hat, 1/mu-hat) (one n x n ``eigh``; mu-hat
      raised to the floor if below it); both are lower bounds of w_s(A)
      with no tolerance, and phi_s(x) >= mu-hat to the accuracy of mu-hat
      where the estimate is a crossing;
    * t = max(lo, mu-hat) must pass the test, and then hi = t (1 + 1e-8),
      the membership tolerance counted.  For s <= 2 the pencil at hi has
      no eigenvalue within 1e-6 of the unit circle, so hi holds at every
      angle with the status of that tolerance; for s > 2 it holds at the
      solved angles.

    If t fails, it becomes lo when the test found a violation of more than
    1e-8 (the level-set test may find none when hi lies within rounding of
    w_s, and then lo stays), and the bracket widens to the a-priori upper
    bound 2 ||A|| max(1, 1/s).  While hi / (1 + 1e-8) lies more than
    ``tol`` above lo, the bracket is bisected with the same test, until a
    step no longer shrinks it in floating point; monotonicity in t
    (scaling by |lambda| <= 1 preserves C_s) is what makes the bisection
    valid.  A midpoint that neither passes nor shows a violation lies within
    rounding of w_s: lo rises to the smaller of it and phi_s(x), x the unit
    top eigenvector of H at the test's worst angle and that midpoint; if
    that does not raise lo, the bisection stops.
    ``tol`` only stops that loop: the bracket is about 1e-8 w_s(A) wide
    either way.  No step solves a companion eigenproblem: the sampled test
    reads the ones the estimate solved, and the level-set test solves one
    pencil.  Outside LAPACK's safe range A is scaled by a power of two
    first (see ``_safe_scale``), and the bracket scaled back.  An upper
    bound the test rejects raises :class:`BisectionError`.
    """
    m = as_matrix(a)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    scale = float(_safe_scale(m))
    m, tol = m * scale, tol * scale
    norm2 = float(np.linalg.norm(m, 2))
    if norm2 == 0.0:
        raise ValueError("w_s is undefined for the zero matrix")
    kernel = _CsKernel(m, s)
    eigs = np.linalg.eigvals(m)
    floor = max(float(np.abs(eigs).max()), norm2 / s) * (1.0 - 1e-9)
    ceiling = 2.0 * norm2 * max(1.0, 1.0 / s)
    level_set = kernel.ca >= 0.0 and kernel.cb != 0.0
    if level_set:
        theta, mu = kernel.level_peak(-np.angle(eigs), floor)
    else:
        theta, mu = kernel.peak(-np.angle(eigs))
    lo = max(floor, kernel.witness_bound(theta, max(mu, floor)))

    def test(t):
        # (A/(t (1 + tau)) passes, t is rejected as below w_s, the worst angle)
        if level_set:
            return kernel.level_test(t)
        margin, theta, _ = kernel.max_margin(t)
        return margin <= _MEMBERSHIP_TOL, margin > _MEMBERSHIP_TOL, theta

    t = max(lo, mu)
    passes, rejects, _ = test(t)
    if not passes:
        lo, t = (t if rejects else lo), ceiling
        if not test(t)[0]:
            raise BisectionError(
                f"membership oracle rejects the upper bracket t={t / scale:.6g} for s={s}")
    iters = 0
    while t - lo > tol:
        mid = 0.5 * (lo + t)
        if not lo < mid < t:
            break
        passes, rejects, theta = test(mid)
        if passes:
            t = mid
        else:
            # a midpoint that neither passes nor is rejected lies within
            # rounding of w_s: the witness bound at its worst angle is a lower
            # bound of w_s next to it
            below = mid if rejects else min(mid, kernel.witness_bound(theta, mid))
            if not below > lo:
                break
            lo = below
        iters += 1
    hi = t * (1.0 + _MEMBERSHIP_TOL)
    return OperatorRadiusResult(s=float(s), radius=0.5 * (lo + hi) / scale,
                                bracket=(hi - lo) / scale, lo=lo / scale, hi=hi / scale,
                                iterations=iters)
