"""Write the report of every spectral-kit CLI subcommand on fixed, seeded inputs.

    PYTHONPATH=src python3 tools/cli_reports.py OUTDIR

The inputs are the matrices of the ``workdir`` fixture in tests/test_cli.py,
written into OUTDIR, plus ``inner.mtx`` = 0.6i I + A/20, whose spectrum lies
inside every literal below with an interior, so kestimate runs on them all.
Each run becomes one file ``NN_<subcommand>.txt`` holding the command line,
the exit status, the report and anything written to stderr; the files that
``fapprox --out`` and ``fab --out`` write stay next to them.  Paths in the
reports are relative to OUTDIR, so the reports of two checkouts compare file
by file:

    for f in OLD/*; do
        python3 tools/report_diff.py --rtol 0 "$f" NEW/"${f##*/}"
    done

``kbound``, ``kestimate`` and ``certify`` run on every shape literal of
tests/test_domains.py::test_shape_literal_roundtrip and on one malformed
literal; a command that refuses a literal reports its exit status.
"""

import contextlib
import io
import os
import sys

import numpy as np

from spectral_kit.cli import main
from spectral_kit.matrixcore import write_matrix, write_vector

LITERALS = (
    "disk 0+0i 1.5",
    "xdisk 1-2i 0.75",
    "halfplane 0.5 2",
    "ellipse 0+0i 1.25 0.75 0",
    "interval -1+0i 1+0i",
    "annulus 2",
    "polygon 1+1i -1+1i -1-1i 1-1i",
    "intersect [ disk -0.5+0i 1 ; disk 0.5+0i 1 ]",
    "disk 0",
)


def write_fixtures():
    # the tests/test_cli.py workdir fixture, file for file
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) * 0.4
    write_matrix("a.mtx", a)
    write_matrix("a.txt", a, fmt="txt")
    write_vector("b.txt", rng.standard_normal(5))
    spd = np.eye(5) * 3 + rng.standard_normal((5, 5)) * 0.3
    write_matrix("spd.mtx", spd)
    write_matrix("inner.mtx", 0.6j * np.eye(5) + a / 20)
    with open("atoms.txt", "w") as fh:
        fh.write("# test measure\nc 0\n-4 1.0\n-2 0.5\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except Exception as exc:  # a crash is a report too
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def commands():
    m = ["--matrix", "a.mtx"]
    yield ["nr", *m]
    yield ["nr", "--matrix", "a.txt", "--n-grid", "8"]
    yield ["wradius", *m]
    yield ["wradius", *m, "--s", "1"]
    yield ["wradius", *m, "--s", "4", "--tol", "1e-3"]
    for lit in LITERALS:
        yield ["certify", *m, "--shape", lit]
        yield ["kbound", "--shape", lit]
        yield ["kestimate", "--matrix", "inner.mtx", "--shape", lit, "--budget", "100",
               "--seed", "3"]
    yield ["certify", *m, "--shape", "disk 0+0i 0.1"]
    yield ["kbound", "--shape", "disk 0+0i 3", *m]
    yield ["kbound", "--shape", "annulus 2.0953"]
    yield ["kestimate", *m, "--shape", "disk 0+0i 3", "--budget", "40", "--seed", "11"]
    yield ["kestimate", *m, "--shape", "auto", "--budget", "100", "--seed", "3"]
    yield ["fapprox", *m, "--shape", "auto", "--function", "exp", "--order", "12",
           "--out", "approx.mtx"]
    yield ["fab", *m, "--vector", "b.txt", "--m", "5", "--function", "markov atoms.txt",
           "--out", "y.txt"]
    yield ["fab", *m, "--vector", "b.txt", "--m", "4", "--function", "exp"]
    yield ["gmres", "--matrix", "spd.mtx", "--rhs", "b.txt", "--m", "5"]
    yield ["pade", "--function", "markov atoms.txt", "--k", "1", "--m", "2", *m]
    yield ["gallery", "list"]
    for name in run(["gallery", "list"])[1].split():
        yield ["gallery", "verify", name]
    yield ["suites", "--seed", "7", "--trials", "3"]
    yield ["kbound", "--shape", "auto", *m]


def write_reports(outdir):
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    write_fixtures()
    for k, argv in enumerate(commands()):
        code, text, err = run(argv)
        with open(f"{k:02d}_{argv[0]}.txt", "w") as fh:
            fh.write(f"$ {' '.join(argv)}\nexit: {code}\n{text}")
            if err:
                fh.write(f"stderr:\n{err}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: " + __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        sys.exit(2)
    write_reports(sys.argv[1])
