import math

import numpy as np
import pytest

from spectral_kit import numrange
from spectral_kit.domains import exterior_map
from spectral_kit.faber import _support_inside
from spectral_kit.gallery import jordan_block
from spectral_kit.krylov import fit_ellipse
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
    pts = prof.points
    assert np.allclose(pts.imag, 0.0, atol=1e-10)
    assert np.all(np.abs(pts.real) <= 1.0 + 1e-10)


def test_support_profile_disk_case():
    prof = support_profile(crouzeix_2x2(), 128)
    assert np.allclose(prof.values, 1.0, atol=1e-12)
    assert np.allclose(np.abs(prof.points), 1.0, atol=1e-9)


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
        pts = prof.points
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


def test_numerical_radius_finds_the_higher_of_two_near_equal_peaks():
    # the grid argmax sits on the lower peak; the higher one lies half a
    # spacing off the grid, where its sample drops by about h^2 / 8
    h = 2.0 * np.pi / 256
    a = np.diag([np.exp(10j * h), (1.0 + 1e-6) * np.exp(1j * (100 * h + h / 2))])
    assert numerical_radius(a) == pytest.approx(1.0 + 1e-6, abs=1e-12)


def test_polish_peaks_recovers_an_off_grid_periodic_peak():
    # the peak sits just below 2 pi, so its bracket wraps around the grid start
    m = 64
    grid = 2.0 * np.pi * np.arange(m) / m
    t0 = 2.0 * np.pi - 0.4 * (2.0 * np.pi / m)

    def fun(t):
        return np.cos(t - t0)

    vals = fun(grid)
    k = int(np.argmax(vals))
    assert k == 0
    _, value = numrange._polish_peaks(fun, grid, grid[[k]], vals[[k]], periodic=True)
    assert abs(value[0] - 1.0) <= 1e-12


def test_polish_peaks_keeps_an_end_peak_inside_the_range():
    grid = np.linspace(-1.0, 2.0, 31)
    for fun, k in ((lambda t: t, 30), (lambda t: -t, 0)):
        vals = fun(grid)
        x, value = numrange._polish_peaks(fun, grid, grid[[k]], vals[[k]], periodic=False)
        assert -1.0 <= x[0] <= 2.0
        assert value[0] == vals[k] == fun(x[0])


def test_polish_peaks_never_reports_below_the_grid_value():
    # a corner on the grid: the golden search ends beside it, below its value
    grid = 2.0 * np.pi * np.arange(32) / 32
    c = grid[5]
    x, value = numrange._polish_peaks(lambda t: -np.abs(t - c), grid, [c], [0.0],
                                      periodic=True)
    assert value[0] == 0.0 and x[0] == c


def test_polish_peaks_in_lockstep_matches_each_scalar_search_bit_for_bit():
    # T_5 on [-1, 1] has interior maxima at cos(2 pi / 5) and cos(4 pi / 5),
    # both off the grid; products and sums only, so array and scalar
    # evaluation round alike
    def fun(t):
        return ((16.0 * t * t - 20.0) * t * t + 5.0) * t

    grid = np.linspace(-1.0, 1.0, 41)
    vals = fun(grid)
    ks = [k for k in range(1, 40) if vals[k] >= vals[k - 1] and vals[k] > vals[k + 1]]
    assert len(ks) == 2
    xs, values = numrange._polish_peaks(fun, grid, grid[ks], vals[ks], periodic=False)
    for j, k in enumerate(ks):
        x, value = numrange._polish_peaks(fun, grid, grid[[k]], vals[[k]], periodic=False)
        assert (x[0], value[0]) == (xs[j], values[j])
    assert np.allclose(xs, np.cos([4.0 * np.pi / 5.0, 2.0 * np.pi / 5.0]), atol=1e-6)


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


_PROFILE_FIELDS = ("thetas", "values", "witnesses", "points")


def _fresh_profile(a, n_grid):
    numrange._PROFILE_MEMO.clear()
    return support_profile(a, n_grid)


@pytest.mark.parametrize("n", [1, 2, 3, 24])
def test_support_profile_memo_serves_coarse_grid_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fresh = _fresh_profile(a, 256)
    fine = _fresh_profile(a, 512)
    served = support_profile(a, 256)
    assert np.shares_memory(served.values, fine.values)  # rows of the 512 grid
    for name in _PROFILE_FIELDS:
        assert np.array_equal(getattr(served, name), getattr(fresh, name))


def test_support_profile_memo_sees_in_place_edits():
    rng = np.random.default_rng(45)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    before = support_profile(a, 64)
    a[0, 1] += 0.5
    after = support_profile(a, 64)
    fresh = _fresh_profile(a, 64)
    assert not np.array_equal(after.values, before.values)
    for name in _PROFILE_FIELDS:
        assert np.array_equal(getattr(after, name), getattr(fresh, name))


def test_support_profile_arrays_are_read_only_and_memo_bounded():
    rng = np.random.default_rng(46)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for prof in (support_profile(a, 512), support_profile(a, 128)):
        for name in _PROFILE_FIELDS:
            assert not getattr(prof, name).flags.writeable
    with pytest.raises(ValueError):
        prof.values[0] = 0.0
    for _ in range(20):
        support_profile(rng.standard_normal((3, 3)), 64)
    assert len(numrange._PROFILE_MEMO) <= numrange._PROFILE_MEMO_SIZE


def _kernel_inputs():
    rng = np.random.default_rng(47)
    cases = [pytest.param(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                          id=f"random{n}")
             for n in (1, 2, 3, 9, 10, 11, 24, 80)]
    h = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    # Hermitian: W(A) is a segment
    cases.append(pytest.param(h + h.conj().T, id="hermitian11"))
    # normal, with the top eigenvalue repeated at theta = 0, pi/2, pi, ...
    cases.append(pytest.param(
        np.diag([1, 1, 1j, 1j, -1, -1, -1j, 1 + 1j, 0.5, 0.2j, 0, 0.3]), id="normal12"))
    cases.append(pytest.param(jordan_block(12), id="jordan12"))
    cases.append(pytest.param(np.zeros((10, 10)), id="zero10"))
    return cases


@pytest.mark.parametrize("a", _kernel_inputs())
def test_support_profile_top_pair_matches_full_eigh(a):
    a = np.asarray(a, dtype=complex)
    tol = max(1.0, float(np.linalg.norm(a, 2)))
    prof = _fresh_profile(a, 512)
    c = np.cos(prof.thetas)[:, None, None]
    s = np.sin(prof.thetas)[:, None, None]
    herm = (a + a.conj().T) / 2.0
    stack = c * herm + s * (a - a.conj().T) * -0.5j
    assert np.abs(prof.values - np.linalg.eigh(stack)[0][:, -1]).max() <= 1e-13 * tol
    x = prof.witnesses
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-12 * tol
    resid = np.einsum("kij,kj->ki", stack, x) - prof.values[:, None] * x
    assert np.linalg.norm(resid, axis=1).max() <= 1e-12 * tol
    # each Rayleigh point lies on its supporting line re(e^{-i theta} z) = p
    on_line = np.real(np.exp(-1j * prof.thetas) * prof.points) - prof.values
    assert np.abs(on_line).max() <= 1e-12 * tol
    assert _support_inside(a, exterior_map(fit_ellipse(a))) <= 1e-8


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


def _two_disks():
    # W(A) is the hull of two disks whose support peaks differ by 3e-4; the
    # higher one lies between grid angles, the lower one on a grid angle
    c2 = 0.5003 * np.exp(1j * (math.pi + math.pi / 90))
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = [[0.5, 1.0], [0.0, 0.5]]
    a[2:, 2:] = [[c2, 1.0], [0.0, c2]]
    return a


def test_ws_radius_finds_the_higher_of_two_peaks():
    a = _two_disks()
    res = ws_radius(a, 2.0, tol=1e-6)
    assert res.radius == pytest.approx(numerical_radius(a), abs=2e-6)


def test_cs_certificate_refines_every_peak():
    # w(A) = 1.0003, so A/1.0000001 is not in C_2; the violation sits at the
    # higher peak, between grid angles, while the grid argmax is the lower one
    a = _two_disks()
    t = 1.0000001
    assert numrange._CsKernel(a, 2.0).max_margin(t)[0] > 1e-8
    res = cs_membership(a / t, 2.0)
    assert not res.member
    assert res.margin > 1e-8
