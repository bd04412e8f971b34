"""Faber coefficients, Faber polynomials, and certified truncation bounds.

Everything is specific to the Joukowski map class psi(w) = c1 w + c0 +
c_{-1}/w (disks, ellipses, intervals).  Coefficients come from FFT
quadrature of f(psi(w)) on |w| = 1 with an explicit doubling convergence
check; truncation bounds use the coefficient-tail estimate
||(f - p_m)(A)|| <= 2 sum_{j>m} |f_j|, valid when W(A) is contained in the
underlying convex set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .domains import _CONTAINMENT_TOL, ExteriorMap, Shape, exterior_map
from .matrixcore import as_matrix
from .numrange import support_profile

_CONV_TOL = 1e-10
_TAIL_RATIO_CAP = 0.95


@dataclass(frozen=True)
class FaberModel:
    """Truncated Faber expansion of a scalar function on a shape.

    coeffs holds f_0..f_M; tail_bound estimates sum_{j>M} |f_j| (geometric
    extrapolation beyond the computed range, decay ratio capped at 0.95 and
    tail_capped set when the cap binds).
    """

    map: ExteriorMap
    order: int
    coeffs: np.ndarray
    tail_bound: float
    quadrature_size: int
    tail_capped: bool = False

    def tail(self, m: int) -> float:
        """sum_{j>=m} |f_j| + tail_bound: the coefficient mass from degree m on."""
        return float(np.abs(self.coeffs[m:]).sum()) + self.tail_bound


def faber_coeffs(f, e: Shape, order: int) -> FaberModel:
    """Faber coefficients f_m = (1/2*pi*i) int_{|w|=1} f(psi(w)) / w^{m+1} dw.

    Trapezoidal (= FFT) quadrature on the unit circle, spectrally accurate
    for f analytic near E.  The grid starts at max(8*order, 64) points and
    is doubled until every reported coefficient moves by less than 1e-10;
    slow coefficient decay (|f_M| > 0.5 max_j |f_j|) triggers an
    "insufficient analyticity margin" warning.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    emap = exterior_map(e)
    n = max(8 * order, 64)

    def coeff_block(size):
        w = np.exp(2j * np.pi * np.arange(size) / size)
        vals = np.asarray(f(emap.psi(w)), dtype=complex)
        return np.fft.fft(vals) / size

    block = coeff_block(n)
    for _ in range(12):
        finer = coeff_block(2 * n)
        converged = np.max(np.abs(finer[: order + 1] - block[: order + 1])) < _CONV_TOL
        n *= 2
        block = finer
        if converged:
            break
    else:
        raise RuntimeError("Faber quadrature did not converge; "
                           "is f analytic near the shape?")

    coeffs = block[: order + 1].copy()
    mags = np.abs(coeffs)
    if mags.max() > 0 and order >= 1 and mags[order] > 0.5 * mags.max():
        warnings.warn("insufficient analyticity margin: Faber coefficients "
                      "are not decaying", stacklevel=2)

    # tail: exactly computed block M+1..2M plus geometric extrapolation
    ext = np.abs(block[order + 1: min(2 * order, n - 1) + 1])
    tail = float(ext.sum())
    capped = False
    nz = ext[ext > 0]  # skip parity zeros so the decay ratio stays geometric
    if nz.size >= 2:
        ratio = float((nz[1:] / nz[:-1]).max())
        if ratio > _TAIL_RATIO_CAP:
            ratio = _TAIL_RATIO_CAP
            capped = True
        tail += float(nz[-1]) * ratio / (1.0 - ratio)
    return FaberModel(map=emap, order=order, coeffs=coeffs, tail_bound=tail,
                      quadrature_size=n, tail_capped=capped)


def faber_polynomials(emap: ExteriorMap, order: int) -> list:
    """Ascending coefficient vectors of F_0..F_order for a Joukowski map.

    Recurrence: F_0 = 1, F_1 = (z - c0)/c1, F_2 = ((z - c0) F_1 - 2 c_{-1})/c1,
    F_{m+1} = ((z - c0) F_m - c_{-1} F_{m-1})/c1.  Each returned polynomial is
    validated against the defining property: the Laurent expansion of
    F_m(psi(w)) must be w^m plus strictly negative powers.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c1, c0, cm1 = emap.c1, emap.c0, emap.cm1
    polys = [np.array([1.0 + 0j])]
    if order >= 1:
        polys.append(np.array([-c0 / c1, 1.0 / c1]))
    if order >= 2:
        f1 = polys[1]
        f2 = (np.concatenate([[0], f1]) - c0 * np.append(f1, 0)) / c1
        f2[0] -= 2.0 * cm1 / c1
        polys.append(f2)
    for m in range(2, order):
        fm = polys[m]
        fm1 = polys[m - 1]
        nxt = (np.concatenate([[0], fm]) - c0 * np.append(fm, 0)) / c1
        nxt[: len(fm1)] -= (cm1 / c1) * fm1
        polys.append(nxt)
    _laurent_check(emap, polys)
    return polys


def _laurent_residuals(emap: ExteriorMap, polys: list) -> list:
    # F_m(psi(w)) = w^m + (negative powers): per degree m, the nonnegative-
    # power part minus e_m, with its roundoff scale.  The powers psi^k and
    # their magnitude arrays are the same for every degree, so each is
    # convolved once
    c1, c0, cm1 = emap.c1, emap.c0, emap.cm1
    psi = np.array([cm1, c0, c1])  # powers -1..1
    powers = [np.array([1.0 + 0j])]  # psi^k, powers -k..k
    power_mags = [np.array([1.0])]
    for _ in range(1, len(polys)):
        powers.append(np.convolve(powers[-1], psi))
        power_mags.append(np.convolve(power_mags[-1], np.abs(psi)))
    out = []
    for m, coeffs in enumerate(polys):
        # Laurent array indexed by powers -m..m: start from psi^0 = 1
        acc = np.zeros(2 * m + 1, dtype=complex)
        acc[m] = coeffs[0]  # constant term at power 0
        # magnitude accumulator: the sums cancel from ~(|c0|+|c1|)^m down to
        # O(1), so the roundoff scale is the cancelled mass, not the result
        mag = np.zeros(2 * m + 1)
        mag[m] = abs(coeffs[0])
        for k in range(1, m + 1):
            acc[m - k: m + k + 1] += coeffs[k] * powers[k]
            mag[m - k: m + k + 1] += abs(coeffs[k]) * power_mags[k]
        resid = acc[m:].copy()  # powers 0..m
        resid[m] -= 1.0
        out.append((resid, max(1.0, float(mag.max()))))
    return out


def _laurent_check(emap: ExteriorMap, polys: list) -> None:
    for m, (resid, scale) in enumerate(_laurent_residuals(emap, polys)):
        if np.abs(resid).max() > 1e-9 * scale:
            raise RuntimeError(
                f"Faber recurrence failed the Laurent identity at degree {m}")


def _support_inside(a: np.ndarray, emap: ExteriorMap) -> float:
    # max over 256 directions of (support of W(A)) - (support of E); <= 0 inside
    prof = support_profile(a, 256)
    h = np.real(np.exp(-1j * prof.thetas) * emap.c0) + emap.support_about_center(prof.thetas)
    return float(np.max(prof.values - h))


def faber_sum_matrix(model: FaberModel, a, m: int = None):
    """Partial Faber sum p_m(A) with its certified error bound.

    p_m(A) = sum_{j<=m} f_j F_j(A) via the three-term matrix recurrence;
    returns (p_m(A), 2*(sum_{m<j<=M} |f_j| + tail_bound)).  Requires
    W(A) to lie in the shape (support-function check, _CONTAINMENT_TOL slack).
    """
    mat = as_matrix(a)
    if m is None:
        m = model.order
    if not 0 <= m <= model.order:
        raise ValueError("truncation order must lie in [0, M]")
    emap = model.map
    gap = _support_inside(mat, emap)
    if gap > _CONTAINMENT_TOL:
        raise ValueError(
            f"W(A) exceeds the expansion shape by {gap:.3g}; the Faber bound "
            "hypothesis W(A) into E fails")
    c1, c0, cm1 = emap.c1, emap.c0, emap.cm1
    n = mat.shape[0]
    eye = np.eye(n, dtype=complex)
    shifted = mat - c0 * eye
    total = model.coeffs[0] * eye
    if m >= 1:
        g_prev = eye
        g_cur = shifted / c1
        total = total + model.coeffs[1] * g_cur
        for j in range(2, m + 1):
            g_next = (shifted @ g_cur - cm1 * g_prev) / c1
            if j == 2:
                g_next = g_next - (cm1 / c1) * eye  # F_2 extra -2c_{-1} term
            total = total + model.coeffs[j] * g_next
            g_prev, g_cur = g_cur, g_next
    return total, 2.0 * model.tail(m + 1)


def best_approx_bracket(model: FaberModel, m: int):
    """Two-sided bracket for the best degree-m approximation error on E.

    rho_m(f, E) lies between |f_{m+1}| and 2 sum_{j>m} |f_j|.
    """
    if not 0 <= m < model.order:
        raise ValueError("need m < M to bracket the best approximation error")
    lower = float(np.abs(model.coeffs[m + 1]))
    return lower, 2.0 * model.tail(m + 1)
