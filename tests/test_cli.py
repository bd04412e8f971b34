import io
import os

import numpy as np
import pytest

from spectral_kit.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from spectral_kit.krylov import fit_ellipse
from spectral_kit.matrixcore import (read_matrix, read_vector, write_matrix,
                                     write_vector)


def _run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) * 0.4
    write_matrix(tmp_path / "a.mtx", a)
    write_matrix(tmp_path / "a.txt", a, fmt="txt")
    write_vector(tmp_path / "b.txt", rng.standard_normal(5))
    spd = np.eye(5) * 3 + rng.standard_normal((5, 5)) * 0.3
    write_matrix(tmp_path / "spd.mtx", spd)
    (tmp_path / "atoms.txt").write_text("# test measure\nc 0\n-4 1.0\n-2 0.5\n")
    return tmp_path


# ---------------------------------------------------------------------------
# formats and exit codes

def test_nr_emits_csv_header_and_rows(workdir):
    code, text = _run(["nr", "--matrix", str(workdir / "a.mtx"),
                       "--n-grid", "8"])
    assert code == EXIT_PASS
    lines = text.strip().splitlines()
    assert lines[0] == "theta, re, im, support_value"
    assert len(lines) == 9
    first = [float(t) for t in lines[1].split(",")]
    assert first[0] == 0.0
    # the boundary point realizes the support value at theta = 0
    assert abs(first[1] - first[3]) <= 1e-9


def test_nr_matches_structured_text_input(workdir):
    _, from_mm = _run(["nr", "--matrix", str(workdir / "a.mtx")])
    _, from_txt = _run(["nr", "--matrix", str(workdir / "a.txt")])
    assert from_mm == from_txt


def test_wradius_exact_gauges_and_bisection(workdir):
    code, text = _run(["wradius", "--matrix", str(workdir / "a.mtx")])
    assert code == EXIT_PASS
    assert "numerical radius" in text
    code, text = _run(["wradius", "--matrix", str(workdir / "a.mtx"),
                       "--s", "4", "--tol", "1e-3"])
    assert code == EXIT_PASS
    assert "certified:" in text and "iterations:" in text


def test_certify_pass_and_fail_exit_codes(workdir):
    code, text = _run(["certify", "--matrix", str(workdir / "a.mtx"),
                       "--shape", "disk 0+0i 3"])
    assert code == EXIT_PASS
    assert "holds: true" in text and text.strip().endswith("result: PASS")
    code, text = _run(["certify", "--matrix", str(workdir / "a.mtx"),
                       "--shape", "disk 0+0i 0.1"])
    assert code == EXIT_FAIL
    assert "holds: false" in text


def test_certify_rejects_inexact_shapes(workdir):
    code, _ = _run(["certify", "--matrix", str(workdir / "a.mtx"),
                    "--shape", "annulus 2"])
    assert code == EXIT_USAGE


def test_kbound_reports_candidates():
    code, text = _run(["kbound", "--shape", "annulus 2.0953"])
    assert code == EXIT_PASS
    assert "value: 3\n" in text
    assert "candidates:" in text
    # every candidate line carries a label and a 15-significant-digit value
    cand = [ln for ln in text.splitlines() if ln.startswith("    ")]
    assert len(cand) >= 3


def test_kbound_annulus_with_a_radius_whose_square_overflows():
    # every annulus bound tends to 3 as R grows, and none squares R
    code, text = _run(["kbound", "--shape", "annulus 1e200"])
    assert code == EXIT_PASS
    assert "value: 3\n" in text
    assert "    annulus integral bound: 3\n" in text


def test_kbound_auto_fits_the_context_matrix(workdir):
    code, text = _run(["kbound", "--shape", "auto", "--matrix", str(workdir / "a.mtx")])
    assert code == EXIT_PASS
    fitted = fit_ellipse(read_matrix(workdir / "a.mtx"))
    assert f"  shape: {fitted.literal()}\n" in text
    code, _ = _run(["kbound", "--shape", "auto"])
    assert code == EXIT_USAGE


def test_kestimate_echoes_seed(workdir):
    code, text = _run(["kestimate", "--matrix", str(workdir / "a.mtx"),
                       "--shape", "disk 0+0i 3", "--budget", "40",
                       "--seed", "11"])
    assert code == EXIT_PASS
    assert "seed: 11" in text
    assert "lower:" in text and "best_function:" in text


def test_gallery_list_and_verify(workdir):
    code, text = _run(["gallery", "list"])
    assert code == EXIT_PASS
    assert "hoelder1" in text.splitlines()
    code, text = _run(["gallery", "verify", "hoelder1"])
    assert code == EXIT_PASS
    assert text.strip().endswith("result: PASS")
    code, text = _run(["gallery", "verify", "jordan_nilpotent(12)",
                       "--tol", "1e-16"])
    assert code == EXIT_FAIL
    assert "[FAIL]" in text


def test_suites_cli_small(workdir):
    code, text = _run(["suites", "--seed", "7", "--trials", "3"])
    assert code == EXIT_PASS
    assert text.startswith("suites: seed 7, trials 3")
    assert text.strip().endswith("result: PASS")
    assert text.count("[PASS]") == 7 and "[info]" in text


# ---------------------------------------------------------------------------
# function approximation commands

def test_fapprox_writes_roundtrip_matrix(workdir):
    dest = workdir / "approx.mtx"
    code, text = _run(["fapprox", "--matrix", str(workdir / "a.mtx"),
                       "--shape", "auto", "--function", "exp",
                       "--order", "12", "--out", str(dest)])
    assert code == EXIT_PASS
    assert f"wrote: {dest}" in text
    bound = float(next(ln.split(":")[1] for ln in text.splitlines()
                       if ln.strip().startswith("error_bound")))
    approx = read_matrix(dest)
    a = read_matrix(workdir / "a.mtx")
    import scipy.linalg
    assert np.linalg.norm(scipy.linalg.expm(a) - approx, 2) <= bound
    # round-trip: written matrix re-reads bit-identically
    tmp2 = workdir / "approx2.mtx"
    write_matrix(tmp2, approx)
    assert np.array_equal(read_matrix(tmp2), approx)


def test_fab_markov_bounds_hold(workdir):
    dest = workdir / "y.txt"
    code, text = _run(["fab", "--matrix", str(workdir / "a.mtx"),
                       "--vector", str(workdir / "b.txt"), "--m", "5",
                       "--function", f"markov {workdir / 'atoms.txt'}",
                       "--out", str(dest)])
    assert code == EXIT_PASS
    assert "contained: true" in text
    assert "bound_faber:" in text
    y = read_vector(dest)
    assert y.shape == (5,)
    # vector writer round-trips at 17 significant digits
    dest2 = workdir / "y2.txt"
    write_vector(dest2, y)
    assert np.array_equal(read_vector(dest2), y)


def test_fab_without_out_prints_entries(workdir):
    code, text = _run(["fab", "--matrix", str(workdir / "a.mtx"),
                       "--vector", str(workdir / "b.txt"), "--m", "4",
                       "--function", "exp"])
    assert code == EXIT_PASS
    assert "approximation:" in text
    entries = [ln for ln in text.splitlines() if ln.startswith("    ")]
    assert len(entries) == 5


def test_gmres_csv_curves_dominate_residuals(workdir):
    code, text = _run(["gmres", "--matrix", str(workdir / "spd.mtx"),
                       "--rhs", str(workdir / "b.txt"), "--m", "5"])
    assert code == EXIT_PASS
    lines = text.strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("lens_factor" in ln for ln in comments)
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert rows[0] == "m, residual, bound_faber, bound_asymptotic"
    for row in rows[1:]:
        j, resid, bf, _ = (float(t) for t in row.split(","))
        assert resid <= bf + 1e-12
    assert len(rows) == 7  # header + iterations 0..5


def test_pade_exact_on_two_atoms(workdir):
    code, text = _run(["pade", "--function",
                       f"markov {workdir / 'atoms.txt'}",
                       "--k", "1", "--m", "2",
                       "--matrix", str(workdir / "a.mtx")])
    assert code == EXIT_PASS
    assert "deviation_norm:" in text
    dev = float(next(ln.split(":")[1] for ln in text.splitlines()
                     if ln.strip().startswith("deviation_norm")))
    assert dev <= 1e-9
    # poles sit at the atoms
    assert "poles:" in text


def test_pade_postcondition_failure_exits_one(workdir):
    # nonzero additive constant with k = m-1 breaks the Stieltjes root
    # guarantee; the library refuses and the CLI reports exit 1
    (workdir / "atoms_c.txt").write_text("c 0.5\n-4 1.0\n-2 0.5\n")
    code, _ = _run(["pade", "--function",
                    f"markov {workdir / 'atoms_c.txt'}",
                    "--k", "1", "--m", "2"])
    assert code == EXIT_FAIL


# ---------------------------------------------------------------------------
# usage errors and invariants

def test_usage_errors_exit_two(workdir):
    assert _run(["nr", "--matrix", "no-such-file.mtx"])[0] == EXIT_USAGE
    assert _run(["nr", "--matrix", str(workdir / "a.mtx"),
                 "--n-grid", "2"])[0] == EXIT_USAGE
    assert _run(["certify", "--matrix", str(workdir / "a.mtx"),
                 "--shape", "blob 1"])[0] == EXIT_USAGE
    assert _run(["kbound", "--shape", "disk 0"])[0] == EXIT_USAGE
    assert _run(["gallery", "verify"])[0] == EXIT_USAGE
    assert _run(["kestimate", "--matrix", str(workdir / "a.mtx"),
                 "--shape", "disk 0 1", "--budget", "0"])[0] == EXIT_USAGE
    assert _run(["wradius", "--matrix", str(workdir / "a.mtx"),
                 "--s", "-1"])[0] == EXIT_USAGE


def test_nr_grid_floor_matches_support_profile(workdir, capsys):
    code, _ = _run(["nr", "--matrix", str(workdir / "a.mtx"), "--n-grid", "7"])
    assert code == EXIT_USAGE
    assert "need at least 8 boundary angles" in capsys.readouterr().err
    code, text = _run(["nr", "--matrix", str(workdir / "a.mtx"), "--n-grid", "8"])
    assert code == EXIT_PASS
    assert len(text.strip().splitlines()) == 9


def test_one_parser_serves_successive_calls(workdir, capsys):
    # the parser is built once per process; each call still parses its own
    # arguments, and a usage error leaves the next call unaffected
    from spectral_kit.cli import _build_parser
    mtx = str(workdir / "a.mtx")
    assert _run(["nr", "--matrix", mtx, "--n-grid", "8"])[0] == EXIT_PASS
    code, text = _run(["wradius", "--matrix", mtx, "--s", "4", "--tol", "1e-3"])
    assert code == EXIT_PASS and "certified:" in text
    assert _run(["wradius", "--s", "4"])[0] == EXIT_USAGE
    assert _run(["certify", "--matrix", mtx, "--shape", "disk 0+0i 0.1"])[0] == EXIT_FAIL
    assert _build_parser() is _build_parser()
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["nosuch"]) == EXIT_USAGE
    capsys.readouterr()


def test_bad_vector_length_reports_file(workdir, capsys):
    write_vector(workdir / "short.txt", np.ones(3))
    code, _ = _run(["gmres", "--matrix", str(workdir / "spd.mtx"),
                    "--rhs", str(workdir / "short.txt")])
    assert code == EXIT_USAGE
    assert "short.txt" in capsys.readouterr().err


def test_markov_file_diagnostics_carry_line_numbers(workdir, capsys):
    bad = workdir / "bad_atoms.txt"
    bad.write_text("-4 1.0\nthis is not an atom line\n")
    code, _ = _run(["pade", "--function", f"markov {bad}",
                    "--k", "1", "--m", "1"])
    assert code == EXIT_USAGE
    assert f"{bad}:2" in capsys.readouterr().err


def test_reports_are_byte_identical_across_runs(workdir):
    args = ["kestimate", "--matrix", str(workdir / "a.mtx"),
            "--shape", "disk 0+0i 3", "--budget", "60", "--seed", "5"]
    assert _run(args) == _run(args)
    args = ["suites", "--seed", "2", "--trials", "4"]
    assert _run(args) == _run(args)


def test_thread_cap_env_is_validated(workdir, monkeypatch, capsys):
    from spectral_kit.cli import _THREAD_VARS
    prior = {var: os.environ.get(var) for var in _THREAD_VARS}
    try:
        # the cap only fills variables the caller left unset
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SPECTRALKIT_THREADS", "zero")
        assert main(["gallery", "list"]) == EXIT_USAGE
        assert "SPECTRALKIT_THREADS" in capsys.readouterr().err
        monkeypatch.setenv("SPECTRALKIT_THREADS", "2")
        code, _ = _run(["gallery", "list"])
        assert code == EXIT_PASS
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            assert os.environ[var] == "2"
    finally:
        for var, old in prior.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old
