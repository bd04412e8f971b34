"""Diff two spectral-kit CLI reports line by line, numbers within a tolerance.

    python3 tools/report_diff.py OLD.txt NEW.txt --rtol 1e-12 [--atol 0]

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
        with open(args.old) as fh:
            old_lines = fh.read().splitlines()
        with open(args.new) as fh:
            new_lines = fh.read().splitlines()
    except OSError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    diffs, (worst, line) = compare(old_lines, new_lines, args.rtol, args.atol)
    for k, old, new in diffs:
        print(f"line {k}:\n  - {old}\n  + {new}")
    where = f" (line {line})" if line is not None else ""
    print(f"max relative difference: {worst:.3g}{where}; "
          f"{len(diffs)} differing line(s) at rtol {args.rtol:g}, atol {args.atol:g}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
