"""Independent reference numerics for the benchmark oracles.

Nothing here imports spectral_kit: every check a job must pass is computed
from numpy and scipy directly, so a defect in the library cannot also hide
in its own oracle.
"""

import numpy as np
import scipy.linalg


def ginibre(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _eigmax_at(a, thetas):
    ph = np.exp(-1j * np.asarray(thetas, dtype=float))[:, None, None]
    h = (ph * a[None] + np.conj(ph * a[None]).swapaxes(1, 2)) / 2.0
    return np.linalg.eigvalsh(h)[:, -1]


def support_values(a, thetas):
    """lambda_max(re(e^{-i theta} A)) at each angle."""
    return _eigmax_at(np.asarray(a, dtype=complex), thetas)


def numerical_radius_grid(a, n_grid=128):
    """Grid maximum of the support function: a lower bound on w(A)."""
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    return float(support_values(a, thetas).max())


def numerical_radius(a, n_grid=512):
    """w(A) from an angle grid refined by bounded Brent search (~1e-12)."""
    from scipy.optimize import minimize_scalar  # kept out of the timed set-up

    a = np.asarray(a, dtype=complex)
    if not a.any():
        return 0.0
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    vals = support_values(a, thetas)
    k = int(np.argmax(vals))
    step = 2.0 * np.pi / n_grid
    res = minimize_scalar(lambda t: -float(_eigmax_at(a, [t])[0]),
                          bounds=(thetas[k] - step, thetas[k] + step),
                          method="bounded", options={"xatol": 1e-12})
    return max(float(vals[k]), -float(res.fun))


def norm2(a):
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def spectral_radius(a):
    return float(np.abs(np.linalg.eigvals(np.asarray(a, dtype=complex))).max())


def expm(a):
    return scipy.linalg.expm(np.asarray(a, dtype=complex))


def rational_at_matrix(num, den, a):
    """p(A) q(A)^{-1} for ascending coefficient sequences, by Horner."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[0], dtype=complex)

    def horner(coeffs):
        out = np.zeros_like(a)
        for c in reversed(coeffs):
            out = out @ a + complex(c) * eye
        return out

    return np.linalg.solve(horner(den), horner(num))


def rational_at_points(num, den, z):
    return (np.polyval(np.asarray(num, dtype=complex)[::-1], z)
            / np.polyval(np.asarray(den, dtype=complex)[::-1], z))


def disk_boundary(center, radius, n):
    t = 2.0 * np.pi * np.arange(n) / n
    return complex(center) + float(radius) * np.exp(1j * t)


def ellipse_boundary(center, a, b, rotation, n):
    t = 2.0 * np.pi * np.arange(n) / n
    return complex(center) + np.exp(1j * float(rotation)) * (
        float(a) * np.cos(t) + 1j * float(b) * np.sin(t))
