"""Diff two spectral-kit CLI reports line by line, numbers within a tolerance.

    python3 tools/report_diff.py OLD.txt NEW.txt --rtol 1e-12 [--atol 0]
    python3 tools/report_diff.py OLD_DIR NEW_DIR --rtol 0

Given two directories (such as two ``tools/cli_reports.py`` outputs), every
file of either is compared with the same-named file of the other, and a
file found on one side only is named and counts as a difference.

Each line is split into number tokens and the text between them.  The text
must match exactly; two numbers agree when |a - b| <= rtol max(|a|, |b|) +
atol (NaN agrees only with NaN, an infinity only with itself).  Complex
values such as ``0.3-1.2e-05i`` compare as their real and imaginary parts.
Written files (``fapprox --out``, ``fab --out``) are reports too.

Prints every line that differs, then the largest relative difference
|a - b| / max(|a|, |b|) over all number pairs and the line it occurs on.
Exits 0 when the reports agree, 1 when they do not, 2 on a usage error.
"""

import argparse
import math
import os
import re
import sys

_NUMBER = re.compile(r"[-+]?(?:(?<![A-Za-z])(?:nan|inf)(?![A-Za-z])"
                     r"|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def tokens(line):
    """(text pieces, numbers): the text between numbers, and the numbers."""
    return _NUMBER.split(line), [float(t) for t in _NUMBER.findall(line)]


def rel_diff(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old_lines, new_lines, rtol, atol):
    """Differing (line number, old, new) and the worst (rel diff, line number)."""
    diffs = []
    worst = (0.0, None)
    if len(old_lines) != len(new_lines):
        diffs.append((min(len(old_lines), len(new_lines)) + 1,
                      f"<{len(old_lines)} lines>", f"<{len(new_lines)} lines>"))
    for k, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        old_text, old_nums = tokens(old)
        new_text, new_nums = tokens(new)
        same = old_text == new_text and len(old_nums) == len(new_nums)
        for a, b in zip(old_nums, new_nums):
            r = rel_diff(a, b)
            if r > worst[0]:
                worst = (r, k)
            if r > 0 and not abs(a - b) <= rtol * max(abs(a), abs(b)) + atol:
                same = False
        if not same:
            diffs.append((k, old, new))
    return diffs, worst


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--rtol", type=float, default=1e-12)
    p.add_argument("--atol", type=float, default=0.0)
    args = p.parse_args(argv)
    if args.rtol < 0 or args.atol < 0:
        p.error("tolerances must be nonnegative")
    try:
        if os.path.isdir(args.old) and os.path.isdir(args.new):
            return compare_dirs(args.old, args.new, args.rtol, args.atol)
        return 1 if report(args.old, args.new, args.rtol, args.atol) else 0
    except OSError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2


def report(old_path, new_path, rtol, atol):
    """Print the differing lines of two files and a summary; their count."""
    with open(old_path) as fh:
        old_lines = fh.read().splitlines()
    with open(new_path) as fh:
        new_lines = fh.read().splitlines()
    diffs, (worst, line) = compare(old_lines, new_lines, rtol, atol)
    for k, old, new in diffs:
        print(f"line {k}:\n  - {old}\n  + {new}")
    where = f" (line {line})" if line is not None else ""
    print(f"max relative difference: {worst:.3g}{where}; "
          f"{len(diffs)} differing line(s) at rtol {rtol:g}, atol {atol:g}")
    return len(diffs)


def compare_dirs(old_dir, new_dir, rtol, atol):
    """Compare the same-named files of two directories; 1 if any differ."""
    old_names = {f for f in os.listdir(old_dir) if os.path.isfile(os.path.join(old_dir, f))}
    new_names = {f for f in os.listdir(new_dir) if os.path.isfile(os.path.join(new_dir, f))}
    bad = []
    for name in sorted(old_names | new_names):
        if name not in new_names or name not in old_names:
            side = new_dir if name not in new_names else old_dir
            print(f"{name}: missing from {side}")
            bad.append(name)
            continue
        print(f"{name}:")
        if report(os.path.join(old_dir, name), os.path.join(new_dir, name), rtol, atol):
            bad.append(name)
    print(f"{len(old_names | new_names) - len(bad)} of {len(old_names | new_names)} "
          f"file(s) agree; differing or missing: {', '.join(bad) or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
