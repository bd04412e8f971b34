"""Oracle self-test: every oracle must reject a corrupted result.

    python3 bench/selftest.py

Builds the warm-up jobs of all four workloads (one small job per query
type), runs them clean through the benchmark's own loop and expects no
failure, then runs each again with its result corrupted after the library
returns and expects every corrupted job to be counted as failed. A job
that raises must be counted too. Exits 1 if any oracle lets a corruption
through.
"""

import dataclasses
import shutil
import sys

import numpy as np
import scipy.io

import calibrate
import run
import workloads


def _scramble(text):
    # keeps every number parseable but changes its value
    return text.translate(str.maketrans("0123456789", "5678901234"))


def _flip_exit(job, res):
    code, text = res
    return (1 if code == 0 else 0), text


def _out_file(job):
    return job.argv[job.argv.index("--out") + 1]


def _zero_matrix_file(job, res):
    path = _out_file(job)
    n = scipy.io.mmread(path).shape[0]
    scipy.io.mmwrite(path, np.zeros((n, n), dtype=complex))
    return res


def _zero_vector_file(job, res):
    path = _out_file(job)
    with open(path) as fh:
        n = sum(1 for line in fh if line.strip())
    with open(path, "w") as fh:
        fh.write("0 0\n" * n)
    return res


def _profile(job, res):
    r = res[2.0]
    return {**res, 2.0: dataclasses.replace(r, radius=r.radius * 1.01, hi=r.hi * 1.01)}


def _fab(job, res):
    y, report = res
    y = y.copy()
    y[0] += 1e6 * (report.bound_faber + 1.0)
    return y, report


def _fapprox(job, res):
    pm, bound = res
    return pm + 10.0 * (bound + 1.0) * np.eye(len(pm)), bound


def _gmres(job, res):
    its = list(res.gmres_iterates)
    its[-1] = 1001.0 * its[-1]
    return dataclasses.replace(res, gmres_iterates=its)


def _kestimate(job, res):
    shape, est = res
    return shape, dataclasses.replace(est, lower=est.lower * 1.5)


CORRUPTIONS = {
    "profile": [_profile],
    "fab": [_fab],
    "fapprox": [_fapprox],
    "gmres": [_gmres],
    "kest_ellipse": [_kestimate],
    "kest_disk": [_kestimate],
    "cli:fapprox": [_flip_exit, _zero_matrix_file],
    "cli:fab": [_flip_exit, _zero_vector_file],
    "cli:nr": [_flip_exit, lambda job, res: (res[0], _scramble(res[1]))],
    "cli:wradius": [_flip_exit, lambda job, res: (res[0], _scramble(res[1]))],
}


def corrupted(job, corruption):
    def call():
        return corruption(job, job.call())
    return workloads.Job(job.kind, job.size, call, job.check, job.argv)


def raising(job):
    def call():
        raise RuntimeError("injected failure")
    return workloads.Job(job.kind + " (raises)", job.size, call, job.check, job.argv)


def main():
    out = run.OUT_DIR
    out.mkdir(exist_ok=True)
    tmp = out / "tmp-selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        lib = run.load_library()
        files = workloads.CliFiles(str(tmp))
        rng = np.random.default_rng(0)
        jobs = [job for name in workloads.WORKLOADS
                for job in workloads.warmup_jobs(name, lib, rng, files)]

        def once(block):
            _, records = run.run_stream(lib, lambda *_: block, rng, files, 0.0,
                                        calibrate.SpeedProbe())
            return [f for _, _, f in records if f]

        clean = once(jobs)
        bad = [corrupted(job, fn) for job in jobs
               for fn in CORRUPTIONS.get(job.kind, [_flip_exit])]
        bad.append(raising(jobs[0]))
        failures = once(bad)
        missed = [job for job in bad if run.run_job(job)[2] is None] \
            if len(failures) != len(bad) else []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ok = True
    if clean:
        ok = False
        print("clean jobs failed their oracles:", *clean, sep="\n  ")
    print(f"clean: {len(jobs)} jobs, {len(clean)} failed")
    print(f"corrupted: {len(bad)} jobs, {len(failures)} counted as failed, "
          f"fail_ratio {len(failures) / len(bad):.3f}")
    if len(failures) != len(bad):
        ok = False
        print("corruptions that passed an oracle:",
              *(f"{job.kind} n={job.size}" for job in missed), sep="\n  ")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
