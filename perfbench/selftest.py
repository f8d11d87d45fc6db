"""Test the benchmark's correctness checks on real and on corrupted outputs.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs each workload's dsnls
command once at the preset seed, in this process, then runs each check on the
real output and on copies corrupted in one way each.  A check must pass on
the real output and fail on every corrupted copy.  Where a copy is expected
to fail a value check, a statistical note beside it (the order slope window,
moved by the wrong numbers) is not counted against it.

The real trajectory.csv is expected to fail its format check alone: the
simulate command writes its re/im cells as np.float64(x).  A repaired copy,
with the same values written as plain numbers, must pass every check.
Exit code 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
from run import OUT_DIR, WORKLOADS

SEED = checks.PRESET_SEED


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _copy(src: Path, dst: Path, name: str, edit) -> Path:
    """Copy the output directory src to dst and apply edit(rows) to file name."""
    shutil.copytree(src, dst)
    rows = _rows(dst / name)
    edit(rows)
    _write(dst / name, rows)
    return dst


def _scale(row, col, factor):
    row[col] = repr(float(row[col]) * factor)


def charge_cases(real: Path, tmp: Path):
    yield "real output", real, None

    def final_mean_off(rows):
        final = rows[-1]
        final[2] = repr(float(final[2]) + 10.0 * float(final[3]))
    yield "final mean 10 SE off", _copy(real, tmp / "c1", "charge.csv", final_mean_off), "value"
    yield ("t = 0 charge off by 1e-9", _copy(real, tmp / "c2", "charge.csv",
                                             lambda rows: _scale(rows[1], 2, 1 + 1e-9)), "value")
    yield ("final analytic charge off by 1e-3", _copy(real, tmp / "c3", "charge.csv",
                                                      lambda rows: _scale(rows[-1], 4, 1.001)),
           "value")
    yield "a row missing", _copy(real, tmp / "c4", "charge.csv", lambda rows: rows.pop(5)), "value"


def order_cases(real: Path, tmp: Path):
    yield "real output", real, None
    yield ("fit.csv slope off by 1e-6", _copy(real, tmp / "o1", "fit.csv",
                                               lambda rows: _scale(rows[1], 0, 1 + 1e-6)), "value")

    def swap(rows):
        rows[1][2], rows[2][2] = rows[2][2], rows[1][2]
    yield "two errors swapped", _copy(real, tmp / "o2", "order.csv", swap), "value"

    # Second-order errors with a matching fit.csv: only the slope window, a
    # statistical check, fails.
    second = _copy(real, tmp / "o3", "order.csv",
                   lambda rows: [_scale(r, 2, (float(r[0]) / float(rows[1][0])))
                                 for r in rows[1:]])
    table = np.array([[float(c) for c in r] for r in _rows(second / "order.csv")[1:]])
    slope, intercept = np.polyfit(np.log(table[:, 0]), np.log(table[:, 2]), 1)
    _write(second / "fit.csv", [["slope", "intercept", "rms_residual"],
                                [repr(float(slope)), repr(float(intercept)), "0.0"]])
    yield "second-order errors, consistent fit", second, "statistical"


def _plain(rows):
    for row in rows[1:]:
        for col in (3, 4):
            if row[col].startswith(checks.NP_FLOAT):
                row[col] = row[col][len(checks.NP_FLOAT):-1]


def simulate_cases(real: Path, tmp: Path):
    yield "real output (np.float64 cells)", real, "format"
    repaired = _copy(real, tmp / "s0", "trajectory.csv", _plain)
    yield "repaired copy, plain numbers", repaired, None

    def nudge(rows):
        _plain(rows)
        _scale(rows[-500], 3, 1 + 1e-6)
    yield "one re value off by 1e-6", _copy(real, tmp / "s1", "trajectory.csv", nudge), "value"

    def drop(rows):
        _plain(rows)
        rows.pop()
    yield "last row missing", _copy(real, tmp / "s2", "trajectory.csv", drop), "value"

    def conjugate(rows):
        _plain(rows)
        for row in rows[1 + 64 * checks.SIM_J:]:
            row[4] = repr(-float(row[4]))
    yield ("second half conjugated", _copy(real, tmp / "s3", "trajectory.csv", conjugate),
           "value")


CASES = {
    "charge-fig1b": (checks.check_charge, charge_cases),
    "order-fig4-stoch": (checks.check_order, order_cases),
    "simulate-j1000": (checks.check_simulate, simulate_cases),
}


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "dsnls" / "cli.py").is_file():
        print(f"error: {root} holds no dsnls source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from dsnls.cli import run

    base = root / OUT_DIR / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    try:
        for name, (check, cases) in CASES.items():
            real = base / name / "real"
            code = run([*WORKLOADS[name].argv, "--out", str(real)])
            if code != 0:
                print(f"FAIL {name}: dsnls exited {code}")
                ok = False
                continue
            for label, out, expect in cases(real, base / name):
                kinds = {f.kind for f in check(out, SEED)}
                if expect == "value":
                    # A copy with wrong numbers may also move the fitted slope.
                    kinds.discard("statistical")
                good = kinds == ({expect} if expect else set())
                ok &= good
                want = f"fails ({expect})" if expect else "passes"
                got = f"fails ({', '.join(sorted(kinds))})" if kinds else "passes"
                print(f"{'PASS' if good else 'FAIL'} {name}: {label}: expected {want}, {got}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            (root / OUT_DIR).rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
