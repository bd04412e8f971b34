import math
import warnings

import numpy as np
import pytest

from spectral_kit import numrange
from spectral_kit.domains import Ellipse, ExteriorMap, exterior_map
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
    polish = numrange._newton_peaks

    def spy(herm, skew, signs, cs, h):
        centres.append(np.array(cs))
        return polish(herm, skew, signs, cs, h)

    monkeypatch.setattr(numrange, "_newton_peaks", spy)
    w = numerical_radius(a)
    assert len(centres) == 1 and len(centres[0]) == 1
    assert 0.0 <= centres[0][0] <= math.pi
    assert numerical_radius(a.astype(complex)) == pytest.approx(w, rel=1e-15, abs=0)
    # the skipped mirror peak polishes to the same value
    m = a.astype(complex)
    grid = 2.0 * np.pi * np.arange(256) / 256
    k = int(round(centres[0][0] / (2.0 * np.pi / 256)))
    mirror, _ = polish((m + m.conj().T) / 2.0, (m - m.conj().T) * -0.5j, [1.0],
                       grid[[-k % 256]], 2.0 * np.pi / 256)
    assert mirror[0] == pytest.approx(w, rel=1e-15, abs=0)


def _zoom_extremes(a, signs):
    # the 9-point zoom polish of the peaks _angular_extremes selects, the
    # reference for its Newton steps: [max_theta sign * p(theta) per sign]
    m = np.asarray(a, dtype=complex)
    p = numrange._grid_support(m)
    grid = 2.0 * np.pi * np.arange(len(p)) / len(p)
    h = 2.0 * np.pi / len(p)
    out = []
    for sign in signs:
        vals = sign * p
        best = float(vals.max())
        ks = numrange._peak_indices(vals, floor=best - abs(best) * h * h)
        if not m.imag.any():
            ks = np.unique(np.minimum(ks, -ks % len(p)))
        _, polished = numrange._polish_peaks(
            lambda t: sign * hermitian_eigmax(numrange._herm_parts(m, t)),
            grid, grid[ks], vals[ks], periodic=True)
        out.append(float(polished.max()))
    return out


def _newton_cases():
    rng = np.random.default_rng(17)
    h = 2.0 * np.pi / 256
    cases = [np.array([[0.3 - 0.7j]]), np.zeros((1, 1)), np.zeros((4, 4)),
             np.diag([1.0, 1.0, 0.2]),  # a double top eigenvalue
             np.diag([np.exp(10j * h), (1.0 + 1e-6) * np.exp(1j * (100 * h + h / 2))]),
             np.eye(3) + 0.2 * jordan_nilpotent(3), jordan_nilpotent(5)]
    for n in (1, 2, 3, 4, 6, 9, 16, 30):
        cases.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cases.append(rng.standard_normal((n, n)))
        cases.append(2.0 * np.eye(n) + rng.standard_normal((n, n)) / (2.0 * n))
    return cases


def test_newton_polish_matches_the_golden_polish():
    # w(A) and dist(0, W(A)) within 1e-14 of w(A) (about 45 ulps) of the
    # zoom polish (_polish_peaks) of the same peaks, never below the grid samples,
    # and homogeneous under scaling by 1e+-150 and 1e+-200 (the n = 2 closed
    # form of the grid samples squares entries)
    for a in _newton_cases():
        m = np.asarray(a, dtype=complex)
        w, d = numerical_radius(m), dist_origin(m)
        ref_w, ref_neg_d = _zoom_extremes(m, [1.0, -1.0])
        scale = max(ref_w, 1e-300)
        assert abs(w - (ref_w if m.any() else 0.0)) <= 1e-14 * scale
        assert abs(d - max(0.0, ref_neg_d)) <= 1e-14 * scale
        p = numrange._grid_support(m)
        assert w >= p.max() and d >= max(0.0, -p.min())
        for c in (1e150, 1e-150, 1e200, 1e-200):
            assert numerical_radius(c * m) == pytest.approx(c * w, rel=1e-14, abs=0)
            assert dist_origin(c * m) == pytest.approx(c * d, rel=1e-14, abs=1e-14 * c * w)
        # subnormal entries carry about 13 digits
        assert numerical_radius(1e-310 * m) == pytest.approx(1e-310 * w, rel=1e-9, abs=0)


def test_numerical_radius_of_jordan_blocks_to_rounding():
    # W(J_n) is the disk of radius cos(pi / (n + 1)), where every angle is a
    # peak and p'' = 0: the polish bisects, and stays within 3 eps
    for n in range(2, 13):
        w = numerical_radius(jordan_block(n))
        assert abs(w - math.cos(math.pi / (n + 1))) <= 3 * np.finfo(float).eps


def test_newton_polish_takes_few_stacked_eigh_calls(monkeypatch):
    # one stacked eigh per lockstep round, where the zoom polish
    # (_polish_peaks) makes about 18 stacked lambda_max calls
    rng = np.random.default_rng(23)
    calls = []
    eigh = np.linalg.eigh

    def spy(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    counts = []
    for n in (2, 3, 5, 8, 12, 20, 40):
        for real in (False, True):
            a = rng.standard_normal((n, n)) + (0 if real else 1j) * rng.standard_normal((n, n))
            for fun in (numerical_radius, dist_origin):
                calls.clear()
                fun(a)
                counts.append(len(calls))
                assert 1 <= len(calls) <= 8
    assert np.mean(counts) <= 4.0


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
    # a corner on the grid: no zoom point beats it
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


def test_polish_peaks_makes_one_call_per_round_for_every_centre():
    # the centres zoom in lockstep: as many calls of fun for 4 peaks as for
    # 1, each with the 8 points per centre other than the centre itself
    grid = np.linspace(-1.0, 1.0, 41)
    counts = []
    for ks in ([10], [10, 30], [5, 10, 30, 35]):
        calls = []

        def fun(t):
            calls.append(t.shape)
            return ((16.0 * t * t - 20.0) * t * t + 5.0) * t

        numrange._polish_peaks(fun, grid, grid[ks], fun(grid[ks]), periodic=False)
        assert calls[1:] == [(8 * len(ks),)] * (len(calls) - 1)
        counts.append(len(calls) - 1)
    assert counts[0] == counts[1] == counts[2] <= 20


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


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300])
def test_support_value_at_extreme_scale_is_the_scaled_value(scale):
    # the n = 2 closed form squares entries: at 1e160 it read inf
    a = np.array([[1.0, 2.0], [0.5, -1j]])
    unit = support_value(a, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = support_value(scale * a, 0.3)
    assert got == pytest.approx(scale * unit, rel=1e-15)
    assert unit == pytest.approx(1.696, abs=1e-3)


def test_support_value_in_the_safe_range_is_unscaled():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3, 6):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for theta in (0.0, 0.3, 2.0):
            h = numrange._herm_parts(a, theta)
            assert support_value(a, theta) == float(hermitian_eigmax(h))


def test_outer_vertices_clip_length_does_not_overflow():
    # the clip length |z2 - z1| squared its parts, which overflowed past
    # about 1e154 and left the vertex unclipped
    t1, t2 = np.array([0.1, 1.0]), np.array([0.3, 1.5])
    z1 = np.array([1.0 + 2.0j, -0.5 + 1.0j])
    z2 = np.array([0.7 + 2.4j, -1.5 + 0.6j])
    p1 = np.real(np.exp(-1j * t1) * z1) + 0.25
    p2 = np.real(np.exp(-1j * t2) * z2) + 0.25
    unit = numrange._outer_vertices(t1, p1, z1, t2, p2, z2)
    for scale in (1e160, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numrange._outer_vertices(t1, scale * p1, scale * z1, t2, scale * p2, scale * z2)
        assert np.abs(got - scale * unit).max() <= 1e-14 * scale * np.abs(unit).max()


def test_support_inside_at_huge_scale_sees_w_a_outside():
    # the ellipse's support squared its semi-axes, so at 1e200 it read inf
    # and W(A) read as inside (-inf) an ellipse it sticks out of
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w = numerical_radius(g)
    unit = _support_inside(g, exterior_map(Ellipse(0.0, 0.5 * w, 0.4 * w)))
    assert unit == pytest.approx(2.359, abs=1e-3)
    for scale in (1e200, 1e-200):
        ws = numerical_radius(scale * g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _support_inside(scale * g, exterior_map(Ellipse(0.0, 0.5 * ws, 0.4 * ws)))
        assert got == pytest.approx(scale * unit, rel=1e-12)


def test_support_about_center_in_the_safe_range_is_unscaled():
    thetas = np.linspace(0.0, 2.0 * np.pi, 64)
    for c1, cm1 in ((1.5, 0.5j), (2.0 - 1.0j, 0.0), (1e-3, 1e-4 - 2e-4j), (1e60, 3e59)):
        emap = ExteriorMap(complex(c1), 0.2j, complex(cm1))
        amaj, bmin = abs(c1) + abs(cm1), abs(c1) - abs(cm1)
        t = thetas - 0.5 * (np.angle(c1) + np.angle(cm1))
        want = np.sqrt((amaj * np.cos(t)) ** 2 + (bmin * np.sin(t)) ** 2)
        assert np.array_equal(emap.support_about_center(thetas), want)


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


@pytest.mark.parametrize("s", [0.5, 1.5, 3.0])
def test_cs_membership_outside_lapacks_safe_range(s):
    # 1e-200 I lies in C_s and 1e200 I does not; outside the safe range the
    # test runs on a scaled copy, with no overflow on the way
    for c in (1e-200, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cs_membership(c * np.eye(3), s)
        assert res.member == (c < 1)
        assert 0.0 < res.r <= 1.0 and np.isfinite(res.margin)


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


def _phi(a, s, x):
    # phi_s(x) = |cb| |z| + sqrt(D), D = (||Ax||^2 - (s-1)^2 ||Ax - zx||^2) / s^2,
    # z = x* A x, for unit x: a lower bound of w_s(A) where D >= 0, else 0
    x = x / np.linalg.norm(x)
    ax = a @ x
    z = np.vdot(x, ax)
    d = (np.linalg.norm(ax) ** 2 - (s - 1.0) ** 2 * np.linalg.norm(ax - z * x) ** 2) / s ** 2
    return abs(s - 1.0) / s * abs(z) + math.sqrt(d) if d >= 0.0 else 0.0


def _dense_witness_vector(a, s, n_theta=4001, zoom=0):
    # found without peak: the top eigenvector of H at the largest real
    # companion root over a dense grid of angles, from one stacked eigvals;
    # zoom > 0 rescans the best cell on that many angles
    n = a.shape[0]
    ca, cb = (2.0 - s) / s, (s - 1.0) / s
    aha = a.conj().T @ a

    def crossings(thetas):
        ph = np.exp(1j * thetas)[:, None, None]
        m = ph * a + np.conj(ph) * a.conj().T
        comp = np.zeros((len(thetas), 2 * n, 2 * n), dtype=complex)
        comp[:, :n, n:] = np.eye(n)
        comp[:, n:, :n] = ca * aha
        comp[:, n:, n:] = cb * m
        ev = np.linalg.eigvals(comp)
        real = (np.abs(ev.imag) <= 1e-6 * np.abs(ev).max(axis=1, keepdims=True)) & (ev.real > 0)
        mu = np.where(real, ev.real, 0.0).max(axis=1)
        k = int(np.argmax(mu))
        return thetas[k], mu[k], m[k]

    step = 2.0 * np.pi / n_theta
    theta, mu, m = crossings(step * np.arange(n_theta))
    if zoom:
        theta, mu, m = crossings(theta + step * np.linspace(-1.0, 1.0, zoom))
    h = ca / mu ** 2 * aha + cb / mu * m - np.eye(n)
    return np.linalg.eigh(h)[1][:, -1]


def _check_exact_witness(a, s, res):
    # lo is the larger of the a-priori floor and phi_s(x), x the top
    # eigenvector of H(theta-hat, 1/mu-hat) at the peak's own estimate; its
    # Rayleigh quotient on the test matrix of A/(lo (1 - 1e-9)) at r = 1,
    # at the angle that turns cb e^{i theta} z onto |cb z|, is positive, so
    # that scaling is not in C_s.  False where lo is the floor
    kernel = numrange._CsKernel(a, s)
    theta, mu = kernel.peak(-np.angle(np.linalg.eigvals(a)))
    floor = max(spectral_radius(a), op_norm(a, 2) / s) * (1.0 - 1e-9)
    x = np.linalg.eigh(kernel.test_matrices(theta, 1.0 / max(mu, floor)))[1][:, -1]
    phi = _phi(a, s, x)
    assert res.lo == pytest.approx(max(floor, phi), rel=1e-14)
    if phi <= floor:
        return False
    z = np.vdot(x, a @ x)
    turn = -np.angle(z) + (0.0 if s >= 1.0 else np.pi)
    t = res.lo * (1.0 - 1e-9)
    h = ((2.0 - s) / s / t ** 2 * (a.conj().T @ a)
         + (s - 1.0) / s / t * (np.exp(1j * turn) * a + np.exp(-1j * turn) * a.conj().T)
         - np.eye(a.shape[0]))
    assert np.vdot(x, h @ x).real > 0.0
    return True


def test_ws_radius_lo_carries_violation_witness():
    rng = np.random.default_rng(13)
    raised = 0
    for s, tol in ((0.5, 1e-6), (3.0, 1e-6), (1024.0, 5e-4)):
        for n in (2, 5, 8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = ws_radius(a, s, tol=tol)
            raised += _check_exact_witness(a, s, res)
            assert _dense_max_margin(a, s, res.hi) <= 1e-8
    assert raised > 0


def _ginibre_1(scale=1.0):
    rng = np.random.default_rng(1)
    return scale * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))


def test_ws_radius_hi_counts_the_membership_tolerance():
    # the membership test passes where lambda_max(H) <= 1e-8, about 1e-8
    # (relative) below w_s; hi = t (1 + 1e-8) keeps w_s in the bracket at
    # any scale and any tol
    a = _ginibre_1(100.0)
    assert ws_radius(a, 2.0).hi >= numerical_radius(a)
    res = ws_radius(_ginibre_1(), 0.5, tol=1e-10)
    assert res.hi >= 11.5425047882
    assert res.lo <= 11.5425047883


def _hi_cases():
    rng = np.random.default_rng(17)
    out = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           for n in (2, 3, 5, 8)]
    return out + [rng.standard_normal((6, 6)), jordan_nilpotent(4)]


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0, 1024.0])
def test_ws_radius_hi_is_above_an_independent_witness_bound(s):
    # phi_s(y) <= w_s for every unit y; y from a dense companion grid does
    # not depend on peak.  At s = 1024 also the 40 seed-11 matrices
    mats = _hi_cases()
    if s == 1024.0:
        rng = np.random.default_rng(11)
        mats += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for n in rng.integers(2, 9, size=40)]
    tol = 5e-4 if s == 1024.0 else 1e-6
    for a in mats:
        y = _dense_witness_vector(a, s)
        for scale in (1.0, 1e3):
            res = ws_radius(scale * a, s, tol=tol)
            assert res.lo <= res.radius <= res.hi
            assert res.hi >= _phi(scale * a, s, y)


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
    # tolerance; the zoom search over it must stop, not stall (a stall
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


def _forced_fallback(monkeypatch):
    # the estimate (the level-set iteration at s <= 2, peak above) reports
    # 0.9 mu-hat, which fails its own test, and its vector no witness bound
    # (at s = 2 the top eigenvector of H does not depend on u, so it would
    # bound w_s exactly)
    peak, level_peak = numrange._CsKernel.peak, numrange._CsKernel.level_peak

    def low_peak(self, extra_thetas):
        theta, mu = peak(self, extra_thetas)
        return theta, 0.9 * mu

    def low_level_peak(self, extra_thetas, floor):
        theta, mu = level_peak(self, extra_thetas, floor)
        return theta, 0.9 * mu

    monkeypatch.setattr(numrange._CsKernel, "peak", low_peak)
    monkeypatch.setattr(numrange._CsKernel, "level_peak", low_level_peak)
    monkeypatch.setattr(numrange._CsKernel, "witness_bound", lambda *args: 0.0)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 1024.0])
def test_ws_radius_reuses_the_roots_of_its_peak_search(monkeypatch, s):
    # a membership decision evaluates at most 2n + 2 test matrices per angle
    # the estimate solved (the 90 x 50 lattice with its zooms evaluated
    # 4,500 + 4 * 81 * 4), and after the estimate no stack of companion
    # eigenproblems is solved again, in the bisection fallback neither.  At
    # s > 2 the estimate is the peak search; at s <= 2 it is the level-set
    # iteration, no peak runs at all, it keeps no roots, and each decision
    # solves one pencil (a single 2n x 2n eigenproblem) and evaluates at
    # most 2n + 2 test matrices.  The angles are counted on the kernel:
    # s = 2 solves them with eigvalsh
    eigmax, eigvals = numrange.hermitian_eigmax, np.linalg.eigvals
    log = []

    def spy_eigmax(h):
        log.append(("eigmax", math.prod(h.shape[:-2])))
        return eigmax(h)

    def spy_eigvals(m):
        if np.ndim(m) == 3:
            log.append(("companion", len(m)))
        return eigvals(m)

    def spy_estimate(method):
        def run(self, *args):
            out = method(self, *args)
            log.append((method.__name__, len(self.root_thetas)))
            return out
        return run

    monkeypatch.setattr(numrange, "hermitian_eigmax", spy_eigmax)
    monkeypatch.setattr(np.linalg, "eigvals", spy_eigvals)
    for name in ("peak", "level_peak"):
        monkeypatch.setattr(numrange._CsKernel, name,
                            spy_estimate(getattr(numrange._CsKernel, name)))
    estimate = "level_peak" if s <= 2.0 else "peak"

    def check(a, tol):
        log.clear()
        res = ws_radius(a, s, tol=tol)
        if s <= 2.0:
            assert all(what != "peak" for what, _ in log)
        done = next(i for i, (what, _) in enumerate(log) if what == estimate)
        solved = log[done][1]
        if s <= 2.0:
            assert solved == 0
        after = log[done + 1:]
        assert all(what == "eigmax" for what, _ in after)
        assert max(k for _, k in after) <= max(solved, 1) * (2 * a.shape[0] + 2)
        return res

    rng = np.random.default_rng(19)
    for n in range(2, 9):
        check(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1e-6)
    # the witness bound brackets the estimate directly, even this close ...
    assert check(jordan_nilpotent(3), 1e-9).iterations == 0
    # ... and an estimate that fails its own test falls back to bisection
    _forced_fallback(monkeypatch)
    assert check(jordan_nilpotent(3), 1e-9).iterations > 0


def test_peak_newton_iterates_solve_no_angle_twice(monkeypatch):
    # an iterate at an angle already solved reads its mu* back, so the angles
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


def test_peak_polishes_by_newton_steps_in_few_small_companion_stacks(monkeypatch):
    # peak runs no zoom; after its first stack each companion stack holds at
    # most _PEAK_CANDIDATES angles (the live Newton iterates), and over the
    # seeded matrices the median number of such stacks is at most 2
    def forbidden(*args):
        raise AssertionError("peak ran the zoom")

    companion, stacks = numrange._CsKernel._companion_roots, []

    def spy(self, thetas):
        stacks.append(len(thetas))
        return companion(self, thetas)

    monkeypatch.setattr(numrange, "_zoom_max", forbidden)
    monkeypatch.setattr(numrange._CsKernel, "_companion_roots", spy)
    rng = np.random.default_rng(26)
    counts = []
    for s in (2.5, 3.0, 8.0, 1024.0):
        for n in range(2, 9):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            stacks.clear()
            numrange._CsKernel(a, s).peak(-np.angle(np.linalg.eigvals(a)))
            assert max(stacks[1:], default=0) <= numrange._PEAK_CANDIDATES
            counts.append(len(stacks) - 1)
    assert np.median(counts) <= 2


@pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 3.0, 8.0, 1024.0])
def test_peak_is_not_below_a_dense_scan_around_it(s):
    # the Newton polish reaches the top of its peak: mu-hat is not below
    # mu* on 2,001 angles across +-1e-3 of theta-hat
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        for a in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                  rng.standard_normal((n, n))):
            kernel = numrange._CsKernel(a, s)
            theta, mu = kernel.peak(-np.angle(np.linalg.eigvals(a)))
            scan = kernel.crossing(theta + np.linspace(-1e-3, 1e-3, 2001))
            assert mu >= (1.0 - 1e-13) * scan.max()


def test_ws_radius_at_large_s_and_the_default_tol_needs_no_bisection():
    # lambda_max climbs past u = 1/mu-hat with a slope of only about
    # 2 rho(A)/s, so no scaling near mu-hat violates the membership tolerance;
    # lo is the exact witness bound instead, and hi holds on the dense scan
    rng = np.random.default_rng(21)
    for n in range(2, 9):
        for k in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = ws_radius(a, 1024.0)
            assert res.iterations == 0
            assert res.bracket <= 1e-6
            if k == 0:
                assert _check_exact_witness(a, 1024.0, res)
                assert _dense_max_margin(a, 1024.0, res.hi) <= 1e-8


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0])
def test_ws_radius_bisection_fallback_terminates(monkeypatch, s):
    # the fallback bisects until the bracket is within tol or a step no
    # longer shrinks it in floating point (1e10 G: float spacing above
    # tol).  Its lo stays below the witness bound of a zoomed dense grid;
    # for s <= 2 its hi stays above it, and for s > 2, where hi has the
    # status of the tolerance, it passes the dense scan
    g = _ginibre_1()
    y = _dense_witness_vector(g, s, zoom=201)
    refs = {c: _phi(c * g, s, y) for c in (1.0, 1e10)}
    _forced_fallback(monkeypatch)
    for c, ref in refs.items():
        res = ws_radius(c * g, s)
        assert res.iterations > 0
        assert res.lo <= ref
        if s <= 2.0:
            assert ref <= res.hi
        else:
            assert _dense_max_margin(g, s, res.hi / c) <= 1e-8
        assert res.bracket <= 1e-6 + 2e-8 * res.hi


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
def test_ws_radius_bisection_raises_lo_past_an_undecided_midpoint(monkeypatch, s):
    # a midpoint the level-set test neither passes nor rejects raises lo to
    # the witness bound at the test's worst angle, and the bisection goes
    # on: with every rejection reported as undecided, the bracket still
    # closes to tol and brackets the dense-grid witness bound
    g = _ginibre_1()
    ref = _phi(g, s, _dense_witness_vector(g, s, zoom=201))
    level_peak, level_test = numrange._CsKernel.level_peak, numrange._CsKernel.level_test
    witness_bound = numrange._CsKernel.witness_bound
    witnesses = []

    def low_level_peak(self, extra_thetas, floor):
        theta, mu = level_peak(self, extra_thetas, floor)
        return theta, 0.9 * mu

    def undecided(self, t):
        passes, _, theta = level_test(self, t)
        return passes, False, theta

    def first_no_bound(self, theta, t):
        # the estimate's vector gives no bound, the bisection's do
        witnesses.append(t)
        return witness_bound(self, theta, t) if len(witnesses) > 1 else 0.0

    monkeypatch.setattr(numrange._CsKernel, "level_peak", low_level_peak)
    monkeypatch.setattr(numrange._CsKernel, "level_test", undecided)
    monkeypatch.setattr(numrange._CsKernel, "witness_bound", first_no_bound)
    res = ws_radius(g, s)
    assert len(witnesses) > 2
    assert res.iterations > 0
    assert res.lo <= ref <= res.hi
    assert res.bracket <= 1e-6 + 2e-8 * res.hi


@pytest.mark.parametrize("c", [1e-200, 1e-9, 1e10, 1e150, 1e200])
def test_ws_radius_at_extreme_scales(c):
    # outside LAPACK's safe range ws_radius runs on A scaled by a power of
    # two; inside it the bracket is relative, whatever the absolute tol
    g = _ginibre_1()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0.5, 1.5, 3.0, 1024.0):
            ref = ws_radius(g, s)
            res = ws_radius(c * g, s)
            assert res.lo / c <= ref.hi and ref.lo <= res.hi / c
            assert res.bracket <= 1e-6 * res.radius
        res = ws_radius(c * np.eye(3), 1.5)
        assert res.lo / c <= 1.0 + 1e-15 and res.hi / c >= 1.0


@pytest.mark.parametrize("s", [0.3, 0.5, 1.5, 2.0])
def test_ws_radius_at_s_up_to_2_runs_no_peak_search_and_no_sampled_test(monkeypatch, s):
    # at s <= 2 the level-set iteration gives the estimate and the pencil
    # test decides hi at every angle: peak and max_margin never run, in the
    # bisection fallback neither
    def forbidden(*args):
        raise AssertionError("the sampled path ran at s <= 2")

    monkeypatch.setattr(numrange._CsKernel, "peak", forbidden)
    monkeypatch.setattr(numrange._CsKernel, "max_margin", forbidden)
    rng = np.random.default_rng(24)
    for n in range(2, 9):
        ws_radius(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), s, tol=4e-6)
    ws_radius(jordan_nilpotent(3), s, tol=1e-9)
    _forced_fallback(monkeypatch)
    assert ws_radius(_ginibre_1(), s).iterations > 0


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
def test_ws_radius_hi_keeps_the_pencil_off_the_unit_circle(s):
    # on 21 Ginibre matrices, n = 2-8: no eigenvalue of the pencil at hi
    # lies within the stated gap of the unit circle, and hi is above
    # phi_s(y) of the dense-grid vector y, a lower bound of w_s found
    # without the level-set iteration
    rng = np.random.default_rng(25)
    for n in range(2, 9):
        for _ in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = ws_radius(a, s, tol=4e-6)
            _, dist = numrange._CsKernel(a, s).pencil(res.hi)
            assert dist.min() > numrange._CIRCLE_GAP
            assert res.hi >= _phi(a, s, _dense_witness_vector(a, s))
            assert res.lo <= res.radius <= res.hi


def _degenerate_cases():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return {
        "jordan8": jordan_nilpotent(8),
        "crouzeix": crouzeix_2x2(),
        "roots5": np.diag(np.exp(2j * np.pi * np.arange(5) / 5)),
        "diag013": np.diag([0.0, 1.0, 3.0]).astype(complex),
        "one": np.array([[0.7 - 0.2j]]),
        "kron": np.kron(np.eye(2), g),
    }


# (lo, hi) at s = 0.5, 1.5, 2 from the sampled path (peak and the
# membership test at its solved angles) that ran at s <= 2 before the
# level-set iteration
_FROZEN_BRACKETS = {
    "jordan8": [(2.899377796680754, 2.8993778256745446), (0.9664592655602506, 0.9664592752248465),
                (0.9396926207859082, 0.939692630182835)],
    "crouzeix": [(4.000000000000001, 4.000000040000003), (1.333333333333333, 1.3333333466666686),
                 (0.9999999999999998, 1.0000000100000002)],
    "roots5": [(3.0, 3.00000003), (1.0, 1.00000001), (1.0, 1.00000001)],
    "diag013": [(9.0, 9.00000009), (3.0, 3.00000003), (3.0, 3.00000003)],
    "one": [(2.184032966784155, 2.1840329886244847), (0.7280109889280517, 0.7280109962081616),
            (0.7280109889280517, 0.7280109962081617)],
    "kron": [(13.95650133795607, 13.956501477521082), (4.65216711265205, 4.652167159173721),
             (4.4941080871786525, 4.494108132119733)],
}


@pytest.mark.parametrize("name", sorted(_FROZEN_BRACKETS))
def test_ws_radius_on_singular_and_degenerate_pencils_keeps_the_frozen_brackets(name):
    # Jordan blocks and [[0, 2], [0, 0]] make the pencil singular at the
    # level w_s itself (mu* is constant in theta) and their D singular;
    # diag(0, 1, 3) has a singular D too; the normal matrices, the 1 x 1
    # matrix and kron(I_2, G), whose eigenvalues are double, have a regular
    # D.  Each bracket is bracketed directly and matches the sampled path's
    # to rounding
    a = _degenerate_cases()[name]
    for s, (lo, hi) in zip((0.5, 1.5, 2.0), _FROZEN_BRACKETS[name]):
        res = ws_radius(a, s)
        assert res.iterations == 0
        assert res.lo == pytest.approx(lo, rel=1e-14)
        assert res.hi == pytest.approx(hi, rel=1e-14)
        assert lo <= res.radius <= hi


def _degenerate_cases_above_2():
    cases = _degenerate_cases()
    cases.update(jordan3=jordan_nilpotent(3), jordan5=jordan_nilpotent(5),
                 real=np.random.default_rng(4).standard_normal((4, 4)))
    return cases


# (lo, hi) of ws_radius at s = 3, 8, 1024 from the 9-point zoom polish of
# the peak search that ran before its Newton steps
_FROZEN_BRACKETS_ABOVE_2 = {
    "crouzeix": [(0.6666666666666664, 0.666666673333335),
                 (0.25000000000000006, 0.2500000025000221),
                 (0.001953124998046875, 0.00195312534680475)],
    "diag013": [(3.0, 3.00000003),
                (3.0, 3.00000003),
                (3.0, 3.0000000300002285)],
    "jordan3": [(0.5773502691896257, 0.5773502749631302),
                (0.35355339059327373, 0.35355339412881737),
                (0.031249999999773254, 0.03125000047676134)],
    "jordan5": [(0.7892015145747697, 0.7892015224667883),
                (0.6200550537916357, 0.6200550599921951),
                (0.17807877820905982, 0.17807878008014819)],
    "jordan8": [(0.8986341472714579, 0.8986341562578055),
                (0.7908885367088152, 0.7908885446177076),
                (0.37954561645679485, 0.3795456202985957)],
    "kron": [(4.336690045378935, 4.3366900887458355),
             (4.140368843027479, 4.140368884431168),
             (4.0236054185685965, 4.02360545880465)],
    "one": [(0.7280109889280517, 0.7280109962081616),
            (0.7280109889280518, 0.7280109962081617),
            (0.7280109889280518, 0.7280109962081617)],
    "real": [(2.195275430638075, 2.1952754525908293),
             (1.9619160199771237, 1.9619160395962838),
             (1.8141784082039127, 1.8141784263456968)],
    "roots5": [(1.0, 1.00000001),
               (1.0, 1.00000001),
               (1.0, 1.000000010000226)],
}


@pytest.mark.parametrize("name", sorted(_FROZEN_BRACKETS_ABOVE_2))
def test_ws_radius_above_2_on_degenerate_matrices_keeps_the_frozen_brackets(name):
    # where the Newton formula has no simple eigenvalue or no slope: mu*' = 0
    # at every angle (Jordan blocks, [[0, 2], [0, 0]]), a top eigenvalue of
    # H that is not simple (kron(I_2, G), the normal matrices), the real-root
    # window edges of a real A.  Each bracket meets its frozen one and
    # moves by at most 1e-9 (relative)
    a = _degenerate_cases_above_2()[name]
    for s, (lo, hi) in zip((3.0, 8.0, 1024.0), _FROZEN_BRACKETS_ABOVE_2[name]):
        res = ws_radius(a, s)
        assert res.lo <= hi and lo <= res.hi
        assert res.lo == pytest.approx(lo, rel=1e-9)
        assert res.hi == pytest.approx(hi, rel=1e-9)
