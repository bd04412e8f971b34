import math

import numpy as np
import pytest

from spectral_kit.matrixcore import op_norm, spectral_radius
from spectral_kit.numrange import (
    BisectionError,
    cs_membership,
    dist_origin,
    hermitian_eigmax,
    numerical_radius,
    support_profile,
    support_value,
    ws_radius,
)


def jordan_nilpotent(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


def crouzeix_2x2():
    return np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)


def test_hermitian_eigmax_matches_lapack():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        h = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n))
        h = h + np.conj(h.swapaxes(1, 2))
        got = hermitian_eigmax(h)
        ref = np.linalg.eigvalsh(h)[:, -1]
        assert np.allclose(got, ref, atol=1e-10 * max(1.0, np.abs(h).max()))


def test_hermitian_eigmax_degenerate_multiple_of_identity():
    h = np.broadcast_to(2.5 * np.eye(3), (4, 3, 3)).copy().astype(complex)
    assert np.allclose(hermitian_eigmax(h), 2.5, atol=1e-14)


def test_support_profile_hermitian_segment():
    prof = support_profile(np.diag([1.0, -1.0]), 64)
    # segment [-1, 1]: support is |cos theta|, boundary points real
    assert np.allclose(prof.values, np.abs(np.cos(prof.thetas)), atol=1e-12)
    pts = prof.boundary_points()
    assert np.allclose(pts.imag, 0.0, atol=1e-10)
    assert np.all(np.abs(pts.real) <= 1.0 + 1e-10)


def test_support_profile_disk_case():
    prof = support_profile(crouzeix_2x2(), 128)
    assert np.allclose(prof.values, 1.0, atol=1e-12)
    assert np.allclose(np.abs(prof.boundary_points()), 1.0, atol=1e-9)


def test_support_profile_ellipse_case():
    rho = 2.0
    a = np.array([[1.0, rho - 1 / rho], [0.0, -1.0]], dtype=complex)
    prof = support_profile(a, 256)
    semi_minor = (rho - 1 / rho) / 2.0
    semi_major = math.sqrt(1.0 + semi_minor ** 2)
    expected = np.sqrt(semi_major ** 2 * np.cos(prof.thetas) ** 2
                       + semi_minor ** 2 * np.sin(prof.thetas) ** 2)
    assert np.allclose(prof.values, expected, atol=1e-10)


def test_support_witness_consistency():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    prof = support_profile(a, 64)
    scale = np.linalg.norm(a, 2)
    for k in range(0, 64, 7):
        x = prof.witnesses[k]
        h = (np.exp(-1j * prof.thetas[k]) * a + np.exp(1j * prof.thetas[k]) * a.conj().T) / 2
        rq = (np.conj(x) @ h @ x).real
        assert abs(rq - prof.values[k]) <= 1e-9 * scale


def test_support_profile_convexity_invariant():
    # every boundary witness point must satisfy all sampled half-plane bounds
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prof = support_profile(a, 64)
        pts = prof.boundary_points()
        proj = np.real(np.exp(-1j * prof.thetas)[:, None] * pts[None, :])
        slack = prof.values[:, None] - proj
        assert slack.min() >= -1e-8 * max(1.0, np.linalg.norm(a, 2))


def test_numerical_radius_jordan_block():
    assert numerical_radius(jordan_nilpotent(4)) == pytest.approx(
        math.cos(math.pi / 5.0), abs=1e-8)


def test_numerical_radius_disk_and_normal():
    assert numerical_radius(crouzeix_2x2()) == pytest.approx(1.0, abs=1e-10)
    assert numerical_radius(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-10)
    assert numerical_radius(np.zeros((3, 3))) == 0.0


def test_numerical_radius_two_sided_norm_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = numerical_radius(a)
        nrm = op_norm(a, 2)
        assert nrm / 2 - 1e-8 <= w <= nrm + 1e-8


def test_numerical_radius_hermitian_equals_norm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2
        w = numerical_radius(h)
        assert w == pytest.approx(op_norm(h, 2), abs=1e-9)
        assert w == pytest.approx(spectral_radius(h), abs=1e-9)


def test_dist_origin_cases():
    assert dist_origin(np.eye(3)) == pytest.approx(1.0, abs=1e-10)
    assert dist_origin(crouzeix_2x2()) == pytest.approx(0.0, abs=1e-10)
    assert dist_origin(np.diag([1.0, 3.0])) == pytest.approx(1.0, abs=1e-8)


def test_support_value_single_angle():
    a = np.diag([2.0, -1.0])
    assert support_value(a, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert support_value(a, math.pi) == pytest.approx(1.0, abs=1e-12)


def test_cs_membership_contraction():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a *= 0.9 / np.linalg.norm(a, 2)
    assert cs_membership(a, 1.0).member


def test_cs_membership_radius_boundary():
    res = cs_membership(crouzeix_2x2(), 2.0)
    assert res.member
    assert abs(res.margin) <= 1e-8


def test_cs_membership_norm_violation_witness():
    res = cs_membership(crouzeix_2x2(), 1.0)
    assert not res.member
    # the Cauchy-Schwarz violation is worst at the outer radius r = 1
    assert res.r == pytest.approx(1.0, abs=1e-12)
    assert res.margin == pytest.approx(3.0, abs=1e-6)  # lambda_max(A*A - I) = 3


def test_cs_membership_grid_floor():
    with pytest.raises(ValueError):
        cs_membership(np.eye(2), 1.0, grid=(40, 50))


def test_ws_radius_s1_is_norm():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = ws_radius(a, 1.0, tol=1e-6)
        assert res.radius == pytest.approx(op_norm(a, 2), abs=2e-6)
        assert res.bracket <= 1e-6


def test_ws_radius_s2_is_numerical_radius():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = ws_radius(a, 2.0, tol=1e-6)
        assert res.radius == pytest.approx(numerical_radius(a), abs=2e-6)


def test_ws_radius_nilpotent_bounds():
    a = crouzeix_2x2()
    res = ws_radius(a, 8.0, tol=1e-6)
    assert res.radius >= 2.0 / 8.0 - 1e-6
    assert res.radius <= numerical_radius(a) + 1e-6


def test_ws_radius_monotone_in_s_toward_spectral_radius():
    rng = np.random.default_rng(8)
    for _ in range(3):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tol = 1e-5
        radii = [ws_radius(a, s, tol=tol).radius for s in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)]
        for r1, r2 in zip(radii, radii[1:]):
            assert r2 <= r1 + 2 * tol
        rho = spectral_radius(a)
        assert abs(radii[-1] - rho) <= max(10 * tol, 0.05 * np.linalg.norm(a, 2))


def test_ws_radius_lower_bound_invariant():
    rng = np.random.default_rng(9)
    for s in (0.5, 1.0, 3.0):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = ws_radius(a, s, tol=1e-6)
        assert res.radius >= op_norm(a, 2) / s - 1e-5


def test_ws_radius_hi_is_certified_member():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    res = ws_radius(a, 2.0, tol=1e-6)
    assert cs_membership(a / res.hi, 2.0).member


def test_ws_radius_normal_matrix_returns_spectral_radius_bracket():
    # normal contractions: membership already holds at the spectral radius
    a = np.diag([0.5, -0.25 + 0.25j])
    res = ws_radius(a, 1.0, tol=1e-8)
    assert res.radius == pytest.approx(0.5, abs=1e-8)


def test_ws_radius_rejects_zero_matrix():
    with pytest.raises(ValueError):
        ws_radius(np.zeros((2, 2)), 1.0)


def _margins_r1(a, s, t, thetas):
    # lambda_max(H(theta, r = 1)) for A/t, straight from eigvalsh
    u = 1.0 / t
    ph = np.exp(1j * thetas)[:, None, None]
    h = ((2.0 - s) / s * u ** 2 * (a.conj().T @ a)
         + (s - 1.0) / s * u * (ph * a + np.conj(ph) * a.conj().T)
         - np.eye(a.shape[0]))
    return np.linalg.eigvalsh(h)[:, -1]


def _dense_max_margin(a, s, t, n_theta=20000):
    # 20k-angle scan, then a 2001-point scan across the best cell, so narrow
    # large-s violation windows are resolved
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vals = _margins_r1(a, s, t, thetas)
    step = 2.0 * np.pi / n_theta
    fine = thetas[int(np.argmax(vals))] + np.linspace(-step, step, 2001)
    return max(float(vals.max()), float(_margins_r1(a, s, t, fine).max()))


def test_ws_radius_large_s_hi_has_no_dense_violation():
    # the 90-angle grid misses the sliver of angles where A/t fails C_1024
    # just above rho(A); hi must still be a member on a dense scan
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    res = ws_radius(a, 1024.0, tol=5e-4)
    assert _dense_max_margin(a, 1024.0, res.hi) <= 1e-8


def test_ws_radius_lo_carries_violation_witness():
    rng = np.random.default_rng(13)
    raised = 0
    for s, tol in ((0.5, 1e-6), (3.0, 1e-6), (1024.0, 5e-4)):
        for n in (2, 5, 8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = ws_radius(a, s, tol=tol)
            floor = max(spectral_radius(a), op_norm(a, 2) / s) * (1.0 - 1e-9)
            if res.lo > floor:
                raised += 1
                assert _dense_max_margin(a, s, res.lo) > 1e-8
            assert _dense_max_margin(a, s, res.hi) <= 1e-8
    assert raised > 0


def test_ws_radius_finds_the_higher_of_two_peaks():
    # W(A) is the hull of two disks whose support peaks differ by 3e-4; the
    # higher one lies between grid angles, the lower one on a grid angle
    c2 = 0.5003 * np.exp(1j * (math.pi + math.pi / 90))
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = [[0.5, 1.0], [0.0, 0.5]]
    a[2:, 2:] = [[c2, 1.0], [0.0, c2]]
    res = ws_radius(a, 2.0, tol=1e-6)
    assert res.radius == pytest.approx(numerical_radius(a), abs=2e-6)
