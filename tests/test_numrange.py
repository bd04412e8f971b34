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
    stacks = []
    for n in (1, 2, 3, 5):
        h = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n))
        stacks.append(h + np.conj(h.swapaxes(1, 2)))
    # 3 x 3 with a near-double top eigenvalue, where a closed form through
    # arccos loses half the digits (errors up to 1e-8 at scale 1)
    q, _ = np.linalg.qr(rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3)))
    lam = np.stack([np.ones(200), 1.0 - 1e-9 * rng.random(200), rng.uniform(-1.0, 0.5, 200)],
                   axis=1)
    h = (q * lam[:, None, :]) @ np.conj(q.swapaxes(1, 2))
    stacks.append((h + np.conj(h.swapaxes(1, 2))) / 2.0)
    for h in stacks:
        got = hermitian_eigmax(h)
        ref = np.linalg.eigvalsh(h)[:, -1]
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10 * max(1.0, np.abs(h).max()))


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
    # a double top eigenvalue: w = 1 to rounding
    assert abs(numerical_radius(np.diag([1.0, 1.0, 0.2])) - 1.0) <= 4 * np.spacing(1.0)


def test_numerical_radius_finds_the_higher_of_two_near_equal_peaks():
    # the grid argmax sits on the lower peak; the higher one lies half a
    # spacing off the grid, where its sample drops by about h^2 / 8
    h = 2.0 * np.pi / 256
    a = np.diag([np.exp(10j * h), (1.0 + 1e-6) * np.exp(1j * (100 * h + h / 2))])
    assert numerical_radius(a) == pytest.approx(1.0 + 1e-6, abs=1e-12)


def test_numerical_radius_polishes_one_of_each_mirror_pair_for_real_a(monkeypatch):
    # real A has p(-theta) = p(theta); this seeded 5x5 has its grid argmax
    # and the mirror image of it both within reach of the top, and only the
    # one in [0, pi] is polished
    a = np.random.default_rng(5).standard_normal((5, 5))
    centres = []
    polish = numrange._polish_peaks

    def spy(fun, grid, cs, values, periodic):
        centres.append(np.array(cs))
        return polish(fun, grid, cs, values, periodic)

    monkeypatch.setattr(numrange, "_polish_peaks", spy)
    w = numerical_radius(a)
    assert len(centres) == 1 and len(centres[0]) == 1
    assert 0.0 <= centres[0][0] <= math.pi
    assert numerical_radius(a.astype(complex)) == pytest.approx(w, rel=1e-15, abs=0)
    # the skipped mirror peak polishes to the same value
    m = a.astype(complex)
    grid = 2.0 * np.pi * np.arange(256) / 256
    k = int(round(centres[0][0] / (2.0 * np.pi / 256)))
    _, mirror = polish(lambda t: hermitian_eigmax(numrange._herm_parts(m, t)),
                       grid, grid[[-k % 256]], [support_value(m, grid[-k % 256])],
                       periodic=True)
    assert mirror[0] == pytest.approx(w, rel=1e-15, abs=0)


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
    # a repeat request is the memoized profile itself; a coarse grid after a
    # fine one is swept on its own and equals a fresh sweep
    rng = np.random.default_rng(40 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fresh = _fresh_profile(a, 256)
    fine = _fresh_profile(a, 512)
    served = support_profile(a, 256)
    assert support_profile(a, 512) is fine
    assert support_profile(a, 256) is served
    assert not np.shares_memory(served.values, fine.values)
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


def _extreme_pair_inputs():
    rng = np.random.default_rng(48)

    def ginibre(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    # both sides of the crossover from stacked eigh to one reduction per angle
    cases = [pytest.param(ginibre(n), id=f"random{n}")
             for n in (1, 2, 9, 10, 11, 12, 13, 80, 256)]
    for n in (6, 20):
        g = ginibre(n)
        cases += [pytest.param(np.zeros((n, n)), id=f"zero{n}"),
                  pytest.param(g + g.conj().T, id=f"hermitian{n}"),
                  pytest.param(g - g.conj().T, id=f"skew{n}"),
                  pytest.param(1e-170 * g, id=f"tiny{n}"),
                  pytest.param(1e150 * g, id=f"huge{n}")]
    cases.append(pytest.param(jordan_block(6), id="jordan6"))
    return cases


@pytest.mark.parametrize("a", _extreme_pair_inputs())
def test_extreme_eigenpairs_match_eigh_at_both_ends(a):
    # row 0 is the top pair of F(t), row 1 the top pair of F(t + pi) = -F(t),
    # each within 8 n eps ||A||_2 of eigh, with unit witnesses of small
    # residual; checked on F / ||A||_2, which over- or underflows for no A here
    a = np.asarray(a, dtype=complex)
    n = len(a)
    thetas = 2.0 * np.pi * np.arange(97 if n < 256 else 5) / 97
    values, witnesses = numrange._extreme_eigenpairs(a, thetas)
    norm = float(np.linalg.norm(a, 2)) or 1.0
    herm, skew = (a + a.conj().T) / 2.0, (a - a.conj().T) * -0.5j
    f = (np.cos(thetas)[:, None, None] * herm + np.sin(thetas)[:, None, None] * skew) / norm
    lam = np.linalg.eigvalsh(f)
    tol = 8.0 * n * np.finfo(float).eps
    assert values.shape == (2, len(thetas)) and witnesses.shape == (2, len(thetas), n)
    assert np.abs(values[0] / norm - lam[:, -1]).max() <= tol
    assert np.abs(values[1] / norm + lam[:, 0]).max() <= tol
    assert np.abs(np.linalg.norm(witnesses, axis=2) - 1.0).max() <= tol
    for sign, vals, x in zip((1.0, -1.0), values, witnesses):
        resid = sign * np.einsum("kij,kj->ki", f, x) - (vals / norm)[:, None] * x
        assert np.linalg.norm(resid, axis=1).max() <= tol


@pytest.mark.parametrize("n", [5, 24])
def test_support_profile_reads_the_antipodal_angle_off_the_bottom_end(n):
    # an even grid solves its first half, and angle k + n_grid/2 is the
    # bottom end of angle k; an odd grid (97) solves every angle at its top
    rng = np.random.default_rng(49)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    even = _fresh_profile(a, 256)
    values, witnesses = numrange._extreme_eigenpairs(a, even.thetas[:128])
    assert np.array_equal(even.values, values.reshape(256))
    assert np.array_equal(even.witnesses, witnesses.reshape(256, n))
    odd = _fresh_profile(a, 97)
    assert np.array_equal(odd.thetas, 2.0 * np.pi * np.arange(97) / 97)
    values, witnesses = numrange._extreme_eigenpairs(a, odd.thetas)
    assert np.array_equal(odd.values, values[0])
    assert np.array_equal(odd.witnesses, witnesses[0])
    c, s = np.cos(odd.thetas)[:, None, None], np.sin(odd.thetas)[:, None, None]
    stack = c * (a + a.conj().T) / 2.0 + s * (a - a.conj().T) * -0.5j
    top = np.linalg.eigvalsh(stack)[:, -1]
    assert np.abs(odd.values - top).max() <= 8.0 * n * np.finfo(float).eps * np.linalg.norm(a, 2)


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


def _margins(a, s, t, thetas, r=1.0):
    # lambda_max(H(theta, r)) for A/t at the broadcast of thetas and r,
    # straight from eigvalsh
    thetas, r = np.broadcast_arrays(np.asarray(thetas, dtype=float), np.asarray(r, dtype=float))
    u = (r / t)[..., None, None]
    ph = np.exp(1j * thetas)[..., None, None]
    h = ((2.0 - s) / s * u ** 2 * (a.conj().T @ a)
         + (s - 1.0) / s * u * (ph * a + np.conj(ph) * a.conj().T)
         - np.eye(a.shape[0]))
    return np.linalg.eigvalsh(h)[..., -1]


def _dense_max_margin(a, s, t, n_theta=20000):
    # 20k-angle scan on r = 1, then a 2001-point scan across the best cell,
    # so narrow large-s violation windows are resolved.  For s > 2, where the
    # supremum over r need not sit at r = 1, the four best cells of the scan
    # are also scanned over r in [0, 1], on a 21 x 201 (theta, r) lattice each
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vals = _margins(a, s, t, thetas)
    step = 2.0 * np.pi / n_theta
    fine = thetas[int(np.argmax(vals))] + np.linspace(-step, step, 2001)
    best = max(float(vals.max()), float(_margins(a, s, t, fine).max()))
    if s > 2.0:
        cells = thetas[numrange._peak_indices(vals)]
        ths = (cells[:, None] + np.linspace(-step, step, 21)).ravel()
        best = max(best, float(_margins(a, s, t, ths[:, None], np.linspace(0.0, 1.0, 201)).max()))
    return best


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
    kernel = numrange._CsKernel(a, 2.0)
    kernel.peak(-np.angle(np.linalg.eigvals(a)))
    assert kernel.max_margin(t)[0] > 1e-8
    res = cs_membership(a / t, 2.0)
    assert not res.member
    assert res.margin > 1e-8


def _lattice_max_margin(kernel, t):
    # the full 90 x 50 (theta, r) lattice with 9 x 9 zooms: the membership
    # test as it ran for every s before the test exact in r
    rs = np.linspace(0.0, 1.0, 50)
    grid = kernel.margins_at(kernel.thetas[:, None], rs / t)
    ks = numrange._peak_indices(grid.max(axis=1))
    js = np.argmax(grid[ks], axis=1)
    rows = np.arange(len(ks))
    values, thetas, rr = grid[ks, js], kernel.thetas[ks], rs[js]
    d_theta, d_r = 2.0 * np.pi / 90, 1.0 / 49
    for _ in range(4):
        ths = thetas[:, None] + np.linspace(-d_theta, d_theta, 9)
        rrs = np.clip(rr[:, None] + np.linspace(-d_r, d_r, 9), 0.0, 1.0)
        sub = kernel.margins_at(ths[:, :, None], rrs[:, None, :] / t).reshape(len(ks), -1)
        i, j = np.divmod(np.argmax(sub, axis=1), 9)
        thetas, rr = ths[rows, i], rrs[rows, j]
        values = np.maximum(values, sub[rows, 9 * i + j])
        d_theta /= 4.0
        d_r /= 4.0
    k = int(np.argmax(values))
    return float(values[k]), float(thetas[k]), float(rr[k])


@pytest.mark.parametrize("n, s", [(3, 0.5), (7, 3.0)])
def test_cs_membership_at_w_s_stops_on_an_ulp_wide_root_interval(monkeypatch, n, s):
    # at t = w_s a companion root sits a few ulps above t, so the last
    # sub-interval of u is a few ulps wide and its midpoint within the
    # tolerance; the golden search over it must stop, not stall (a stall
    # is cut off here after 1000 test-matrix evaluations)
    rng = np.random.default_rng(5)
    mats = {k: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for k in range(2, 9)}
    a = mats[n]
    w = ws_radius(a, s, tol=1e-6).radius
    calls = []
    margins_at = numrange._CsKernel.margins_at

    def bounded(self, *args):
        calls.append(1)
        assert len(calls) <= 1000, "the membership test stalled"
        return margins_at(self, *args)

    monkeypatch.setattr(numrange._CsKernel, "margins_at", bounded)
    res = cs_membership(a / w, s)
    assert res.member == (res.margin <= 1e-8)


def test_max_margin_before_peak_raises():
    # the membership test reads the angles the peak search solved
    kernel = numrange._CsKernel(crouzeix_2x2(), 1.5)
    with pytest.raises(RuntimeError, match="run peak first"):
        kernel.max_margin(1.0)


def _companion_crossing(a, s, thetas):
    # largest positive real eigenvalue of [[0, I], [ca A*A, cb M(theta)]],
    # straight from eigvals; 0 where there is none
    n = a.shape[0]
    ca, cb = (2.0 - s) / s, (s - 1.0) / s
    out = []
    for th in thetas:
        m = np.exp(1j * th) * a + np.exp(-1j * th) * a.conj().T
        comp = np.block([[np.zeros((n, n)), np.eye(n)], [ca * (a.conj().T @ a), cb * m]])
        ev = np.linalg.eigvals(comp)
        real = ev[(np.abs(ev.imag) <= 1e-6 * np.abs(ev).max()) & (ev.real > 0)].real
        out.append(real.max() if len(real) else 0.0)
    return np.array(out)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0, 1024.0])
def test_peak_reads_the_antipodal_grid_angles_as_negated_roots(s):
    # M(theta + pi) = -M(theta): the roots peak keeps at grid angle k + 45,
    # under the grid's own value, match as a set a fresh solve of the
    # companion C there, each to 1e-13 kappa ||C||_2 with kappa its
    # eigenvalue condition number.  Rounding moves a fresh solve by about
    # eps kappa ||C||: at s = 1024 near-double roots reach kappa ~ 2e4 here,
    # and a fresh solve moves them by up to 2e-12 of the largest modulus
    from scipy.linalg import eig
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(80)
    half = numrange._CS_GRID // 2
    ca, cb = (2.0 - s) / s, (s - 1.0) / s
    for n in range(1, 9):
        for a in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                  rng.standard_normal((n, n))):
            kernel = numrange._CsKernel(a, s)
            kernel.peak(-np.angle(np.linalg.eigvals(a)))
            assert np.isin(kernel.thetas, kernel.root_thetas).all()
            # an extra angle of real A can repeat a grid angle (0 or pi)
            for theta in kernel.thetas[half:]:
                m = np.exp(1j * theta) * a + np.exp(-1j * theta) * a.conj().T
                comp = np.block([[np.zeros((n, n)), np.eye(n)], [ca * (a.conj().T @ a), cb * m]])
                fresh, left, right = eig(comp, left=True, right=True)
                kappa = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))
                tol = 1e-13 * kappa * np.linalg.norm(comp, 2)
                for kept in kernel.roots[kernel.root_thetas == theta]:
                    dist = np.abs(kept[:, None] - fresh[None, :])
                    i, j = linear_sum_assignment(dist)
                    assert (dist[i, j] <= tol[j]).all()


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_peak_solves_half_the_grid_in_its_first_stack(monkeypatch, s):
    # the first companion stack holds the grid angles in [0, pi) and the
    # extra angles; s = 2 solves it with eigvalsh
    name = "eigvalsh" if s == 2.0 else "eigvals"
    solver, stacks = getattr(np.linalg, name), []

    def spy(m):
        if np.ndim(m) == 3:
            stacks.append(len(m))
        return solver(m)

    rng = np.random.default_rng(81)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    extra = -np.angle(np.linalg.eigvals(a))
    monkeypatch.setattr(np.linalg, name, spy)
    numrange._CsKernel(a, s).peak(extra)
    assert stacks[0] == numrange._CS_GRID // 2 + len(extra)


def test_cs_kernel_needs_an_even_start_grid(monkeypatch):
    # an odd grid has no grid angle at theta + pi to read as negated roots
    monkeypatch.setattr(numrange, "_CS_GRID", 91)
    with pytest.raises(ValueError, match="even number of angles"):
        numrange._CsKernel(crouzeix_2x2(), 1.5)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_peak_at_s1_and_s2_matches_the_companion(n):
    # s = 1: the companion's eigenvalues +-sqrt(lambda(A*A)) do not depend on
    # theta, and the peak is ||A||_2 without a sweep; s = 2: the companion is
    # block-triangular and mu*(theta) is lambda_max(M(theta) / 2)
    rng = np.random.default_rng(60 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    norm2 = np.linalg.norm(a, 2)
    for s in (1.0, 2.0):
        kernel = numrange._CsKernel(a, s)
        theta, mu = kernel.peak([])
        ref = _companion_crossing(a, s, kernel.thetas)
        assert mu == pytest.approx(_companion_crossing(a, s, [theta])[0], rel=1e-13)
        if s == 1.0:
            assert mu == pytest.approx(norm2, rel=1e-13)
            assert np.allclose(ref, norm2, rtol=1e-13, atol=0)
        else:
            assert np.allclose(kernel.crossing(kernel.thetas), ref,
                               rtol=1e-13, atol=1e-13 * norm2)
            assert mu >= ref.max() * (1.0 - 1e-13)


def test_ws_radius_just_above_s2_takes_the_exact_path_and_agrees():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s_up = 2.0 + 1e-9
    # s = 2 solves the block-triangular companion with eigvalsh, just above
    # with eigvals; either way the test is exact in r at every angle the
    # peak search solved
    for s in (2.0, s_up):
        kernel = numrange._CsKernel(a, s)
        _, mu = kernel.peak([])
        assert len(kernel.root_thetas) > 90
        assert kernel.max_margin(mu) == kernel.exact_margin(mu, kernel.root_thetas, kernel.roots)
    tol = 1e-6
    at2, above = ws_radius(a, 2.0, tol=tol), ws_radius(a, s_up, tol=tol)
    assert abs(at2.radius - above.radius) <= tol
    assert above.lo <= at2.hi and at2.lo <= above.hi


def _lattice_decision(kernel, t, theta):
    # the membership test of A/t as ws_radius ran it on the 90 x 50 lattice:
    # the lattice with its 9 x 9 zooms, plus the 50 radii along the
    # estimate's angle theta
    along = kernel.margins_at(theta, np.linspace(0.0, 1.0, 50) / t).max()
    return max(_lattice_max_margin(kernel, t)[0], float(along)) <= 1e-8


def _seeded_matrices():
    # complex and real n = 2-8, two of each per n, and Jordan blocks
    rng = np.random.default_rng(70)
    out = []
    for n in range(2, 9):
        for _ in range(2):
            out.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            out.append(rng.standard_normal((n, n)))
    return out + [jordan_nilpotent(n) for n in (3, 5, 8)]


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0, 1024.0])
def test_exact_membership_decides_as_the_lattice(s):
    # at the estimate mu-hat and on either side of it, the test exact in r
    # at the peak search's angles decides as the 90 x 50 lattice did
    for a in _seeded_matrices():
        kernel = numrange._CsKernel(a, s)
        theta, mu = kernel.peak(-np.angle(np.linalg.eigvals(a)))
        for t in mu * np.array([1.0 - 1e-6, 1.0 + 1e-6, 0.95, 1.05]):
            assert (kernel.max_margin(t)[0] <= 1e-8) == _lattice_decision(kernel, t, theta)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 1024.0])
def test_ws_radius_reuses_the_roots_of_its_peak_search(monkeypatch, s):
    # a membership decision evaluates at most 2n + 2 test matrices per angle
    # the peak search solved (the 90 x 50 lattice with its zooms evaluated
    # 4,500 + 4 * 81 * 4), and after the peak search no companion
    # eigenproblem is solved again, in the bisection fallback neither.  The
    # angles are counted on the kernel: s = 2 solves them with eigvalsh
    eigmax, eigvals, peak = numrange.hermitian_eigmax, np.linalg.eigvals, numrange._CsKernel.peak
    log = []

    def spy_eigmax(h):
        log.append(("eigmax", math.prod(h.shape[:-2])))
        return eigmax(h)

    def spy_eigvals(m):
        if np.ndim(m) == 3:
            log.append(("companion", len(m)))
        return eigvals(m)

    def spy_peak(self, extra_thetas):
        out = peak(self, extra_thetas)
        log.append(("peak", len(self.root_thetas)))
        return out

    monkeypatch.setattr(numrange, "hermitian_eigmax", spy_eigmax)
    monkeypatch.setattr(np.linalg, "eigvals", spy_eigvals)
    monkeypatch.setattr(numrange._CsKernel, "peak", spy_peak)

    def check(a, tol):
        log.clear()
        res = ws_radius(a, s, tol=tol)
        done = next(i for i, (what, _) in enumerate(log) if what == "peak")
        solved = log[done][1]
        after = log[done + 1:]
        assert all(what == "eigmax" for what, _ in after)
        assert max(k for _, k in after) <= solved * (2 * a.shape[0] + 2)
        return res

    rng = np.random.default_rng(19)
    for n in range(2, 9):
        check(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1e-6)
    # the level crossing gives this close bracket its witness ...
    assert check(jordan_nilpotent(3), 1e-9).iterations == 0
    # ... and without it the offset witness cannot clear the membership
    # tolerance, so the bracket starts from the floor: bisection
    monkeypatch.setattr(numrange._CsKernel, "level_crossing", lambda *args: None)
    assert check(jordan_nilpotent(3), 1e-9).iterations > 0


def test_peak_zooms_solve_no_angle_twice(monkeypatch):
    # every zoom round's centre was solved by the round before, so the angles
    # ws_radius keeps for the membership test are all distinct
    kernels = []
    init = numrange._CsKernel.__init__

    def spy_init(self, *args):
        init(self, *args)
        kernels.append(self)

    monkeypatch.setattr(numrange._CsKernel, "__init__", spy_init)
    rng = np.random.default_rng(23)
    for n in (2, 5, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kernels.clear()
        ws_radius(a, 1024.0, tol=5e-4)
        (kernel,) = kernels
        assert len(kernel.root_thetas) > 90
        assert len(np.unique(kernel.root_thetas)) == len(kernel.root_thetas)


def test_ws_radius_at_large_s_and_the_default_tol_needs_no_bisection():
    # lambda_max climbs past u = 1/mu-hat with a slope of about 2 rho(A)/s,
    # so 0.45 tol below mu-hat it is still within the membership tolerance;
    # the bracket is centred where it reaches the tolerance instead, and both
    # ends hold on the dense scan
    rng = np.random.default_rng(21)
    for n in range(2, 9):
        for k in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = ws_radius(a, 1024.0)
            assert res.iterations == 0
            assert res.bracket <= 1e-6
            if k == 0:
                assert _dense_max_margin(a, 1024.0, res.lo) > 1e-8
                assert _dense_max_margin(a, 1024.0, res.hi) <= 1e-8
