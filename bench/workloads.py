"""Job streams for the four benchmark workloads, with their oracles.

A workload is a deterministic stream of blocks drawn from one seed. Every
block has the same composition (sizes stratified over the workload's range,
every query type in a fixed proportion) in a seed-shuffled order, so runs on
different seeds measure the same mix. A job's inputs are generated when its
block is built, before any timer starts; ``call`` then hands only those
inputs to the library and ``check`` judges the result with the independent
numerics of :mod:`reference`, outside the timed span.

Library functions are always looked up as module attributes at call time
(``lib.numrange.ws_radius``), so the tracer's wrappers see every call.
"""

import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.io

import reference as ref

RADII_TOL = 4e-6
RADII_TOL_LARGE_S = 5e-4
# rounding allowance when an f(A) error is compared with its bound; the
# Arnoldi check of criterion 9 allows the same
FLOAT_SLACK = 1e-12


@dataclass
class Job:
    kind: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    argv: tuple = ()


def _fails(*pairs):
    # first message whose condition failed, else None
    for ok, msg in pairs:
        if not ok:
            return msg
    return None


def _stratified(rng, lo, hi, strata):
    # one integer from each of `strata` equal slices of [lo, hi]
    edges = np.linspace(lo, hi + 1, strata + 1)
    return [int(min(hi, math.floor(rng.uniform(edges[k], edges[k + 1]))))
            for k in range(strata)]


def _scaled_c09(rng, n):
    # Ginibre scaled so w(A) is uniform in [0.3, 1.5], as in criterion 9
    g = ref.ginibre(rng, n)
    return g * (rng.uniform(0.3, 1.5) / ref.numerical_radius_grid(g))


# ---------------------------------------------------------------------------
# radii: the operator-radius profile w_s(A) of one matrix

def radii_job(lib, rng, n):
    a = ref.ginibre(rng, n)
    s_mid = float(np.exp(rng.uniform(math.log(0.3), math.log(4.0))))
    s_values = (1.0, 2.0, s_mid, 1024.0)

    def call():
        return {s: lib.numrange.ws_radius(
            a, s, tol=RADII_TOL_LARGE_S if s == 1024.0 else RADII_TOL)
            for s in s_values}

    def check(res):
        w1, w2, rho = ref.norm2(a), ref.numerical_radius(a), ref.spectral_radius(a)
        r1, r2, rm, rinf = (res[s] for s in s_values)
        slack = r1.bracket + r2.bracket + rinf.bracket + 1e-7
        mid_slack = slack + rm.bracket + 1e-5
        return _fails(
            (all(r.lo <= r.radius <= r.hi for r in res.values()),
             "radius outside its own bracket"),
            (abs(r1.radius - w1) <= 1e-5, "w_1 differs from ||A||_2"),
            (abs(r2.radius - w2) <= 1e-5, "w_2 differs from w(A)"),
            (abs(rinf.radius - rho) <= max(1e-3, 0.05 * w1),
             "w_1024 far from the spectral radius"),
            (r2.radius <= r1.radius + slack and rinf.radius <= r2.radius + slack,
             "w_s not nonincreasing in s"),
            (rm.radius >= max(rho, w1 / s_mid) * (1.0 - 1e-9),
             "w_s below max(rho, ||A||/s)"),
            (s_mid < 1.0 or rm.radius <= w1 + mid_slack, "w_s above w_1"),
            (s_mid < 2.0 or rm.radius <= w2 + mid_slack, "w_s above w_2"),
            (s_mid > 2.0 or rm.radius >= w2 - mid_slack, "w_s below w_2"),
            (s_mid > 1.0 or rm.radius >= w1 - mid_slack, "w_s below w_1"))

    return Job("profile", n, call, check)


def radii_block(lib, rng, _files):
    return [radii_job(lib, rng, int(n)) for n in rng.permutation(np.arange(2, 9))]


# ---------------------------------------------------------------------------
# krylov_bounds: certified f(A)b, f(A) and GMRES bounds on mid-size matrices

def fab_job(lib, rng, n):
    a = _scaled_c09(rng, n)
    b = rng.standard_normal(n)
    m = int(rng.integers(4, 17))

    def call():
        return lib.krylov.fab_poly(a, b, m, np.exp)

    def check(res):
        y, report = res
        if not report.contained or report.bound_faber is None:
            return "no certified bound: W(A) not inside the fitted shape"
        eps = np.linalg.norm(ref.expm(a) @ b - y) / np.linalg.norm(b)
        return _fails((eps <= report.bound_faber + FLOAT_SLACK,
                       "||exp(A)b - y||/||b|| exceeds bound_faber"))

    return Job("fab", n, call, check)


def fapprox_job(lib, rng, n):
    a = _scaled_c09(rng, n)
    m = int(rng.integers(4, 17))

    def call():
        shape = lib.krylov.fit_ellipse(a)
        model = lib.faber.faber_coeffs(np.exp, shape, 24)
        return lib.faber.faber_sum_matrix(model, a, m)

    def check(res):
        pm, bound = res
        return _fails((ref.norm2(ref.expm(a) - pm) <= bound + FLOAT_SLACK,
                       "||exp(A) - p_m(A)||_2 exceeds the Faber bound"))

    return Job("fapprox", n, call, check)


def gmres_job(lib, rng, n):
    g = ref.ginibre(rng, n)
    a = 2.0 * np.eye(n) + (0.8 / ref.numerical_radius_grid(g)) * g
    b = rng.standard_normal(n)

    def call():
        return lib.krylov.gmres_fom(a, b, m=n)

    def check(res):
        if res.gmres_faber is None:
            return "no GMRES bound curve"
        bn = np.linalg.norm(b)
        for j, x in enumerate(res.gmres_iterates):
            ratio = np.linalg.norm(b - a @ x) / bn
            if not ratio <= res.gmres_faber[j] + FLOAT_SLACK:
                return f"residual ratio above min(1, 2/|F_j(0)|) at j={j}"
        return None

    return Job("gmres", n, call, check)


KRYLOV_QUERIES = (fab_job, fapprox_job, gmres_job)


def krylov_block(lib, rng, _files):
    # nine size strata over [24, 80]; each query gets three, spread evenly
    sizes = _stratified(rng, 24, 80, 9)
    off = int(rng.integers(3))
    jobs = [KRYLOV_QUERIES[(k + off) % 3](lib, rng, n) for k, n in enumerate(sizes)]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# kestimate: searched lower bounds for the K-spectral constant

def _boundary(shape, count):
    if type(shape).__name__ == "Disk":
        return ref.disk_boundary(shape.center, shape.radius, count)
    return ref.ellipse_boundary(shape.center, shape.a, shape.b,
                                shape.rotation, count)


def kestimate_job(lib, rng, n, on_disk):
    a = ref.ginibre(rng, n)
    seed = int(rng.integers(1 << 31))

    def call():
        if on_disk:
            c = complex(np.trace(a)) / n
            w = lib.numrange.numerical_radius(a - c * np.eye(n))
            shape = lib.domains.Disk(c, 1.05 * w)
        else:
            shape = lib.krylov.fit_ellipse(a)
        return shape, lib.spectraltest.kratio_estimate(a, shape, budget=100,
                                                       seed=seed)

    def check(res):
        shape, est = res
        upper = lib.domains.kbound(shape, context=a).value
        f = est.best_function
        if f is None:
            return "no best function"
        sup = np.abs(ref.rational_at_points(f.num, f.den,
                                            _boundary(shape, 1 << 16))).max()
        replay = ref.norm2(ref.rational_at_matrix(f.num, f.den, a)) / sup
        return _fails(
            (est.lower <= upper * (1.0 + 1e-6), "lower bound above catalog K"),
            (abs(replay - est.lower) <= 1e-6 * est.lower,
             "best_function does not replay to lower"))

    return Job("kest_disk" if on_disk else "kest_ellipse", n, call, check)


def kestimate_block(lib, rng, _files):
    # per n in [2, 8]: two fitted-ellipse jobs and one disk job
    jobs = [kestimate_job(lib, rng, n, on_disk)
            for n in range(2, 9) for on_disk in (False, True, False)]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# cli_mix: the command-line front end on files, in process

def _literal(z):
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _write_matrix(path, a, text):
    if text:
        with open(path, "w") as fh:
            fh.write(f"# benchmark input\n{a.shape[0]}\n")
            for row in a:
                fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")
    else:
        scipy.io.mmwrite(path, a)


def _float_field(text, key):
    # the number after "key:" in a cli report, or None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(key + ":"):
            try:
                return float(line[len(key) + 1:])
            except ValueError:
                return None
    return None


def _read_pairs(path):
    with open(path) as fh:
        return np.array([float(r) + 1j * float(i)
                         for r, i in (line.split() for line in fh if line.strip())])


class CliFiles:
    """Per-run scratch directory for the files cli jobs read and write."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def path(self, suffix):
        self.count += 1
        return os.path.join(self.root, f"j{self.count}{suffix}")

    def matrix(self, a, rng):
        text = bool(rng.integers(2))
        path = self.path(".txt" if text else ".mtx")
        _write_matrix(path, a, text)
        return path


def cli_job(lib, kind, argv, check, size=0):
    def call():
        out = io.StringIO()
        code = lib.cli.main(argv, out=out)
        return code, out.getvalue()

    return Job("cli:" + kind, size, call, check, tuple(argv))


def _expect(code, want, text, *more):
    return _fails((code == want, f"exit code {code}, expected {want}"), *more)


def cli_nr(lib, rng, files, n):
    a = ref.ginibre(rng, n) / math.sqrt(n)
    path = files.matrix(a, rng)

    def check(res):
        code, text = res
        rows = text.strip().splitlines()[1:]
        if code != 0 or len(rows) != 256:
            return _expect(code, 0, text, (len(rows) == 256, "wrong row count"))
        picks = [0, 101, 217]
        vals = np.array([[float(t) for t in rows[k].split(",")] for k in picks])
        want = ref.support_values(a, vals[:, 0])
        return _fails((np.abs(vals[:, 3] - want).max() <= 1e-9 * (1 + np.abs(want).max()),
                       "support values differ from eigvalsh"))

    return cli_job(lib, "nr", ["nr", "--matrix", path], check, n)


def cli_wradius(lib, rng, files, n):
    a = ref.ginibre(rng, n) / math.sqrt(n)
    path = files.matrix(a, rng)

    def check(res):
        code, text = res
        w = ref.numerical_radius(a)
        got = _float_field(text, "radius")
        return _expect(code, 0, text, (got is not None and abs(got - w) <= 1e-8 * (1 + w),
                                       "radius differs from w(A)"))

    return cli_job(lib, "wradius", ["wradius", "--matrix", path, "--s", "2"], check, n)


def cli_certify(lib, rng, files, n, above):
    a = ref.ginibre(rng, n) / math.sqrt(n)
    c = complex(np.trace(a)) / n
    sigma = ref.norm2(a - c * np.eye(n))
    radius = sigma + (1e-3 if above else -1e-3)
    want = 0 if radius >= sigma - 1e-9 else 1
    path = files.matrix(a, rng)

    def check(res):
        code, text = res
        return _expect(code, want, text)

    argv = ["certify", "--matrix", path, "--shape", f"disk {_literal(c)} {radius:.17g}"]
    return cli_job(lib, "certify", argv, check, n)


def cli_kbound_disk(lib, rng, files, n):
    a = ref.ginibre(rng, n) / math.sqrt(n)
    c = complex(np.trace(a)) / n
    radius = 1.05 * ref.numerical_radius(a - c * np.eye(n))
    path = files.matrix(a, rng)

    def check(res):
        code, text = res
        # W(A) lies in the disk, so the Okubo-Ando/Berger-Stampfli constant 2 wins
        return _expect(code, 0, text, (_float_field(text, "value") == 2.0,
                                       "disk with context should give K = 2"))

    argv = ["kbound", "--shape", f"disk {_literal(c)} {radius:.17g}", "--matrix", path]
    return cli_job(lib, "kbound", argv, check, n)


def cli_kbound_shapes(lib, rng):
    big_r = float(rng.uniform(1.2, 5.0))
    pair = 2.0 + math.sqrt((big_r ** 2 + 1.0) / (big_r ** 2 - 1.0))
    ax = float(rng.uniform(0.5, 3.0))
    bx = ax * float(rng.uniform(0.2, 1.0))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 5))
    verts = " ".join(_literal(z) for z in np.exp(1j * angles) * rng.uniform(0.5, 2.0))

    def bounded(hi):
        def check(res):
            code, text = res
            value = _float_field(text, "value")
            return _expect(code, 0, text, (value is not None and 1.0 <= value <= hi,
                                           "catalog K outside its range"))
        return check

    return [
        cli_job(lib, "kbound", ["kbound", "--shape",
                                f"ellipse {_literal(rng.standard_normal())} {ax:.17g} "
                                f"{bx:.17g} {rng.uniform(0, np.pi):.17g}"],
                bounded(11.08)),
        cli_job(lib, "kbound", ["kbound", "--shape", f"polygon {verts}"], bounded(11.08)),
        cli_job(lib, "kbound", ["kbound", "--shape", f"annulus {big_r:.17g}"],
                bounded(pair)),
    ]


def cli_fapprox(lib, rng, files, n):
    a = _scaled_c09(rng, n)
    path = files.matrix(a, rng)
    dest = files.path("_p.mtx")

    def check(res):
        code, text = res
        bound = _float_field(text, "error_bound")
        if code != 0 or bound is None:
            return _expect(code, 0, text, (bound is not None, "no error_bound"))
        approx = np.asarray(scipy.io.mmread(dest), dtype=complex)
        return _fails((ref.norm2(ref.expm(a) - approx) <= bound + FLOAT_SLACK,
                       "written approximant farther than error_bound from exp(A)"))

    argv = ["fapprox", "--matrix", path, "--shape", "auto", "--function", "exp",
            "--order", "16", "--out", dest]
    return cli_job(lib, "fapprox", argv, check, n)


def cli_fab(lib, rng, files, n):
    a = _scaled_c09(rng, n)
    b = rng.standard_normal(n)
    m = min(int(rng.integers(4, 13)), n - 1)
    path = files.matrix(a, rng)
    vec = files.path("_b.txt")
    with open(vec, "w") as fh:
        fh.writelines(f"{x:.17g} 0\n" for x in b)
    dest = files.path("_y.txt")

    def check(res):
        code, text = res
        bound = _float_field(text, "bound_faber")
        if code != 0 or bound is None:
            return _expect(code, 0, text, (bound is not None, "no bound_faber"))
        eps = np.linalg.norm(ref.expm(a) @ b - _read_pairs(dest)) / np.linalg.norm(b)
        return _fails((eps <= bound + FLOAT_SLACK, "written f(A)b farther than bound_faber"))

    argv = ["fab", "--matrix", path, "--vector", vec, "--m", str(m),
            "--function", "exp", "--out", dest]
    return cli_job(lib, "fab", argv, check, n)


def cli_pade(lib, rng, files, n):
    g = ref.ginibre(rng, n)
    a = g * (0.9 / ref.numerical_radius_grid(g))
    path = files.matrix(a, rng)
    atoms = files.path("_atoms.txt")
    with open(atoms, "w") as fh:
        fh.write("c 0\n")
        fh.writelines(f"{x:.17g} {w:.17g}\n" for x, w in
                      zip(np.sort(rng.uniform(-6.0, -1.1, 4)), rng.uniform(0.5, 2.0, 4)))

    def check(res):
        code, text = res
        dev = _float_field(text, "deviation_norm")
        bound = _float_field(text, "matrix_bound")
        return _expect(code, 0, text, (dev is not None and bound is not None
                                       and dev <= bound + FLOAT_SLACK,
                                       "Pade deviation above its matrix bound"))

    argv = ["pade", "--function", f"markov {atoms}", "--k", "2", "--m", "3",
            "--matrix", path]
    return cli_job(lib, "pade", argv, check, n)


def _passes(res):
    code, text = res
    return _expect(code, 0, text, (text.strip().endswith("result: PASS"),
                                   "report does not end in PASS"))


def cli_gallery(lib, name):
    return cli_job(lib, "gallery", ["gallery", "verify", name], _passes)


def cli_suites(lib, rng):
    argv = ["suites", "--trials", "10", "--seed", str(int(rng.integers(1 << 20)))]
    return cli_job(lib, "suites", argv, _passes)


CLI_MATRIX_COMMANDS = (
    cli_nr, cli_wradius,
    lambda lib, rng, files, n: cli_certify(lib, rng, files, n, True),
    lambda lib, rng, files, n: cli_certify(lib, rng, files, n, False),
    cli_kbound_disk, cli_fapprox, cli_fab, cli_pade,
)
CLI_ROUNDS = 6
CLI_SIZE_STRATA = ((4, 13), (14, 23), (24, 32))


def cli_block(lib, rng, files):
    # six rounds; each matrix command meets every size stratum of [4, 32]
    # twice, the nine gallery fixtures are each verified twice, plus one
    # property-suite run
    fixtures = list(lib.gallery.names())
    strata = [rng.permutation(np.tile(np.arange(3), 2)) for _ in CLI_MATRIX_COMMANDS]
    jobs = []
    for r in range(CLI_ROUNDS):
        for cmd, order in zip(CLI_MATRIX_COMMANDS, strata):
            lo, hi = CLI_SIZE_STRATA[order[r]]
            jobs.append(cmd(lib, rng, files, int(rng.integers(lo, hi + 1))))
        jobs.extend(cli_kbound_shapes(lib, rng))
        jobs.extend(cli_gallery(lib, fixtures[(3 * r + k) % len(fixtures)]) for k in range(3))
    jobs.append(cli_suites(lib, rng))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# registry and warm-up

WORKLOADS = {
    "radii": radii_block,
    "krylov_bounds": krylov_block,
    "kestimate": kestimate_block,
    "cli_mix": cli_block,
}


def warmup_jobs(workload, lib, rng, files):
    """One small job per query type, run during set-up so lazy costs land there."""
    if workload == "radii":
        return [radii_job(lib, rng, 2)]
    if workload == "krylov_bounds":
        return [q(lib, rng, 24) for q in KRYLOV_QUERIES]
    if workload == "kestimate":
        return [kestimate_job(lib, rng, 2, False), kestimate_job(lib, rng, 2, True)]
    jobs = [cmd(lib, rng, files, 4) for cmd in CLI_MATRIX_COMMANDS]
    jobs.extend(cli_kbound_shapes(lib, rng))
    jobs.extend(cli_gallery(lib, name) for name in lib.gallery.names())
    jobs.append(cli_suites(lib, rng))
    return jobs

