import math

import numpy as np
import pytest

from spectral_kit.domains import Disk, Ellipse, Interval, exterior_map
from spectral_kit.faber import (FaberModel, _laurent_residuals,
                                best_approx_bracket, faber_coeffs,
                                faber_polynomials, faber_sum_matrix)
from spectral_kit.matrixcore import eval_poly, matfun_reference, op_norm
from spectral_kit.numrange import _polish_peaks, numerical_radius

# Chebyshev coefficients of exp on [-1,1]: c_m = (1/pi) int_0^pi e^{cos t} cos(mt) dt,
# frozen from tools/faber_interval_oracle.py (10^6-point midpoint rule, checked
# against scipy.special.iv to 5e-17).  Faber coefficients on the interval equal
# these directly since F_m = 2*T_m for m >= 1 and F_0 = 1 = T_0.
BESSEL_I1 = [
    1.266065877752008,
    0.5651591039924853,
    0.1357476697670383,
    0.02216842492433192,
    0.002737120221046868,
    0.000271463155956993,
    2.248866147714964e-05,
    1.599218231248841e-06,
    9.960624032095212e-08,
]


def test_disk_coeffs_are_taylor():
    model = faber_coeffs(np.exp, Disk(0.0, 1.0), order=8)
    want = np.array([1.0 / math.factorial(m) for m in range(9)])
    assert np.allclose(model.coeffs, want, atol=1e-12)
    assert abs(model.coeffs[3] - 1.0 / 6.0) < 1e-12


def test_disk_coeffs_scale_with_radius():
    # Taylor about the center times radius powers
    c, r = 0.5j, 2.0
    model = faber_coeffs(np.exp, Disk(c, r), order=7)
    want = np.exp(c) * np.array([r ** m / math.factorial(m)
                                 for m in range(8)])
    assert np.allclose(model.coeffs, want, atol=1e-10)


def test_interval_coeffs_match_bessel_oracle():
    model = faber_coeffs(np.exp, Interval(-1.0, 1.0), order=8)
    assert np.allclose(model.coeffs, BESSEL_I1, atol=1e-10)
    assert np.max(np.abs(model.coeffs.imag)) < 1e-14


def test_identity_function_recovers_map_coeffs():
    e = Ellipse(0.3 - 0.2j, 2.0, 1.0, rotation=0.4)
    emap = exterior_map(e)
    model = faber_coeffs(lambda z: z, e, order=5)
    assert abs(model.coeffs[0] - emap.c0) < 1e-12
    assert abs(model.coeffs[1] - emap.c1) < 1e-12
    assert np.max(np.abs(model.coeffs[2:])) < 1e-12


def test_disk_consistency_against_contour_oracle():
    # independent trapezoid contour on |z| = 0.5 for the Taylor coefficients
    r = 1.7

    def f(z):
        return np.exp(z) / (z - 3.0)

    model = faber_coeffs(f, Disk(0.0, r), order=6)
    n = 4096
    z = 0.5 * np.exp(2j * np.pi * np.arange(n) / n)
    taylor = [np.mean(f(z) * z ** (-m)) for m in range(7)]
    for m in range(7):
        assert abs(model.coeffs[m] - taylor[m] * r ** m) < 1e-9


def test_analyticity_margin_warning():
    # pole at 1.1 just outside the unit disk: slow decay must be flagged
    with pytest.warns(UserWarning, match="analyticity margin"):
        faber_coeffs(lambda z: 1.0 / (z - 1.1), Disk(0.0, 1.0), order=5)


def test_tail_bound_dominates_true_tail():
    model = faber_coeffs(np.exp, Interval(-1.0, 1.0), order=6)
    # true tail sum_{j>6} I_j(1) from the oracle list plus a crumb
    true_tail = BESSEL_I1[7] + BESSEL_I1[8]
    assert model.tail_bound >= true_tail
    assert model.tail_bound < 10 * true_tail
    assert not model.tail_capped


def test_tail_cap_flag_set_for_slow_decay():
    with pytest.warns(UserWarning):
        model = faber_coeffs(lambda z: 1.0 / (z - 1.02), Disk(0.0, 1.0),
                             order=4)
    assert model.tail_capped
    assert np.isfinite(model.tail_bound)


def test_faber_polynomials_interval():
    # F_2 = 2*T_2 = 4z^2 - 2 on [-1,1]
    polys = faber_polynomials(exterior_map(Interval(-1.0, 1.0)), 2)
    assert np.allclose(polys[0], [1.0])
    assert np.allclose(polys[1], [0.0, 2.0])
    assert np.allclose(polys[2], [-2.0, 0.0, 4.0])


def test_faber_polynomials_disk_are_monomials():
    w, r = 1.0 - 2.0j, 1.5
    polys = faber_polynomials(exterior_map(Disk(w, r)), 5)
    z = np.array([0.3 + 0.1j, -1.0, 2.0 + 2.0j])
    for m, p in enumerate(polys):
        want = ((z - w) / r) ** m
        got = np.array([eval_poly(np.asarray(p), np.array([[zz]]))[0, 0]
                        for zz in z])
        assert np.allclose(got, want, atol=1e-10)


def test_faber_first_laurent_parts():
    # F_1(psi(w)) = w + (c_{-1}/c_1)/w: exactly w for disks, and the
    # deviation carries only the 1/w term otherwise
    for shape in [Disk(1j, 0.7), Ellipse(0.0, 2.0, 0.5, 0.3),
                  Interval(-2.0, 1.0 + 1.0j)]:
        emap = exterior_map(shape)
        polys = faber_polynomials(emap, 1)
        w = np.exp(2j * np.pi * np.arange(7) / 7)
        z = emap.psi(w)
        f1 = polys[1][0] + polys[1][1] * z
        assert np.allclose(f1, w + emap.cm1 / (emap.c1 * w), atol=1e-12)
        if shape.kind == "disk":
            assert np.allclose(f1, w, atol=1e-12)


@pytest.mark.parametrize("shape", [
    Disk(0.5, 2.0),
    Ellipse(-1.0 + 0.5j, 3.0, 1.0, rotation=1.1),
    Interval(-1.0, 1.0),
    Interval(1j, 2.0 + 3j),
])
def test_laurent_property_all_maps(shape):
    # the recurrence self-check runs to degree 8 without raising
    faber_polynomials(exterior_map(shape), 8)


def _laurent_residuals_per_degree(emap, polys):
    # the Laurent check as it was first written: psi^k rebuilt for every degree
    c1, c0, cm1 = emap.c1, emap.c0, emap.cm1
    out = []
    for m, coeffs in enumerate(polys):
        acc = np.zeros(2 * m + 1, dtype=complex)
        acc[m] = coeffs[0]
        mag = np.zeros(2 * m + 1)
        mag[m] = abs(coeffs[0])
        power = np.array([1.0 + 0j])
        power_mag = np.array([1.0])
        psi = np.array([cm1, c0, c1])
        for k in range(1, m + 1):
            power = np.convolve(power, psi)
            power_mag = np.convolve(power_mag, np.abs(psi))
            acc[m - k: m + k + 1] += coeffs[k] * power
            mag[m - k: m + k + 1] += abs(coeffs[k]) * power_mag
        resid = acc[m:].copy()
        resid[m] -= 1.0
        out.append((resid, max(1.0, float(mag.max()))))
    return out


@pytest.mark.parametrize("shape", [
    Disk(0.5, 2.0),
    Ellipse(-1.0 + 0.5j, 3.0, 1.0, rotation=1.1),
    Interval(1j, 2.0 + 3j),
])
def test_laurent_residuals_match_per_degree_loop_exactly(shape):
    emap = exterior_map(shape)
    polys = faber_polynomials(emap, 40)
    got = _laurent_residuals(emap, polys)
    want = _laurent_residuals_per_degree(emap, polys)
    assert len(got) == len(want) == 41
    for (r_got, s_got), (r_want, s_want) in zip(got, want):
        assert np.array_equal(r_got, r_want)
        assert s_got == s_want


def test_sum_matrix_nilpotent_disk():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = faber_coeffs(np.exp, Disk(0.0, 1.0), order=12)
    p6, bound = faber_sum_matrix(model, a, m=6)
    err = op_norm(p6 - matfun_reference(a, np.exp), 2)
    assert err <= bound
    assert 4e-4 < bound < 5e-4  # 2*sum_{j>6} 1/j!


def test_sum_matrix_polynomial_exact():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a *= 0.7 / numerical_radius(a)

    def f(z):
        return 2.0 - z + 0.5 * z ** 3

    model = faber_coeffs(f, Ellipse(0.0, 1.25, 0.75), order=6)
    pm, bound = faber_sum_matrix(model, a)
    direct = (2.0 * np.eye(4) - a + 0.5 * np.linalg.matrix_power(a, 3))
    assert op_norm(pm - direct, 2) < 1e-10
    assert bound < 1e-9


def test_sum_matrix_error_within_bound_ellipse():
    e = Ellipse(0.0, 1.25, 0.75)
    model = faber_coeffs(np.exp, e, order=10)
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= 0.74 / numerical_radius(a)  # W(A) in disk(0,0.74) in E
        for m in (4, 7, 10):
            pm, bound = faber_sum_matrix(model, a, m=m)
            err = op_norm(pm - matfun_reference(a, np.exp), 2)
            assert err <= bound + 1e-13


def test_sum_matrix_rejects_large_numerical_range():
    model = faber_coeffs(np.exp, Disk(0.0, 1.0), order=6)
    a = np.array([[0.0, 3.0], [0.0, 0.0]])  # w(A) = 1.5 > 1
    with pytest.raises(ValueError, match="exceeds the expansion shape"):
        faber_sum_matrix(model, a)


def test_bound_monotone_in_m():
    model = faber_coeffs(np.exp, Interval(-1.0, 1.0), order=10)
    a = np.diag([0.3, -0.5, 0.9])
    bounds = [faber_sum_matrix(model, a, m=m)[1] for m in range(11)]
    assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(bounds, bounds[1:]))


def test_faber_operator_two_bound_sampled():
    # ||sum c_j F_j(A)|| <= 2 max_{|w|=1} |sum c_j w^j| when W(A) lies inside
    e = Ellipse(0.0, 1.25, 0.75)
    emap = exterior_map(e)
    deg = 6
    polys = faber_polynomials(emap, deg)
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= 0.74 / numerical_radius(a)
        mats.append([eval_poly(np.asarray(p), a) for p in polys])
    ts = 2 * np.pi * np.arange(512) / 512
    for _ in range(100):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        vals = np.abs(np.polyval(c[::-1], np.exp(1j * ts)))
        k = int(np.argmax(vals))
        _, sup = _polish_peaks(lambda t: np.abs(np.polyval(c[::-1], np.exp(1j * t))),
                               ts, ts[[k]], vals[[k]], periodic=True)
        c = c / sup[0]
        for fj_mats in mats:
            total = sum(cj * fm for cj, fm in zip(c, fj_mats))
            assert op_norm(total, 2) <= 2.0 + 1e-6


def test_best_approx_bracket_disk():
    model = faber_coeffs(np.exp, Disk(0.0, 1.0), order=10)
    lo, hi = best_approx_bracket(model, 3)
    assert abs(lo - 1.0 / 24.0) < 1e-12
    want_hi = 2.0 * (np.e - sum(1.0 / math.factorial(j) for j in range(4)))
    assert abs(hi - want_hi) < 1e-6
    assert lo <= hi


def test_best_approx_bracket_interval():
    model = faber_coeffs(np.exp, Interval(-1.0, 1.0), order=7)
    lo, hi = best_approx_bracket(model, 5)
    assert abs(lo - BESSEL_I1[6]) < 1e-10
    assert hi >= 2.0 * (BESSEL_I1[6] + BESSEL_I1[7] + BESSEL_I1[8])


def test_best_approx_polynomial_is_zero():
    model = faber_coeffs(lambda z: 1.0 + 2.0 * z, Disk(0.0, 1.0), order=5)
    lo, hi = best_approx_bracket(model, 2)
    assert lo < 1e-12
    assert hi < 1e-9


def test_best_approx_requires_m_below_order():
    model = faber_coeffs(np.exp, Disk(0.0, 1.0), order=4)
    with pytest.raises(ValueError):
        best_approx_bracket(model, 4)
