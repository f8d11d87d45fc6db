"""Correctness checks on the outputs of the benchmark's dsnls runs.

Each check recomputes what it compares against from the model's formulas,
not from the package: the charge plateau and the t = 0 charge from their
closed forms, the order fit by an explicit least-squares formula, and the
J = 1000 trajectory step by step from the documented noise stream and the
scheme's defining equations, with `scipy.linalg.solve_banded` for L₋.

A check returns a list of `Failure`s; an empty list means the output passed.
`kind` is "value" when a number is wrong and "format" when a CSV cell is not
a plain decimal number as the schema promises.  "statistical" marks a
Monte Carlo estimate outside a window it leaves on some seeds although the
program is right (the fitted order, see `check_order`): it is reported, and
it does not fail the operation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

# The fig1b physics shared by all three workloads: alpha, lambda, epsilon,
# P modes with eta_k = k^-6, and the sine initial profile.
ALPHA = 0.5
LAM = 1
EPSILON = 1.0
P = 100
ETA = np.arange(1, P + 1, dtype=float) ** -6.0

PRESET_SEED = 11


@dataclass(frozen=True)
class Failure:
    kind: str
    message: str


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- charge --

CHARGE_J = 9
CHARGE_TAU = 2.0 ** -6
CHARGE_STEPS = 2240          # T = 35
CHARGE_STRIDE = 16


def charge_plateau(J: int) -> float:
    """(ε² h / α) Σ_j Σ_k η_k · 2 sin²(k π x_j)."""
    h = 1.0 / (J + 1)
    x = h * np.arange(1, J + 1)
    k = np.arange(1, P + 1)
    s2 = 2.0 * np.sin(np.pi * np.outer(x, k)) ** 2
    return EPSILON ** 2 * h / ALPHA * float((s2 * ETA).sum())


def charge_at_zero(J: int) -> float:
    """h Σ_j sin²(π x_j) for the sine initial profile."""
    h = 1.0 / (J + 1)
    return h * float((np.sin(np.pi * h * np.arange(1, J + 1)) ** 2).sum())


def check_charge(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "charge.csv")
    if header != ["step", "t", "charge_mean", "charge_se", "charge_analytic"]:
        return [Failure("format", f"charge.csv header is {header}")]
    table = np.array([[float(c) for c in row] for row in rows])
    fails = []
    steps = list(range(0, CHARGE_STEPS + 1, CHARGE_STRIDE))
    if table[:, 0].tolist() != steps:
        fails.append(Failure("value", f"charge.csv steps are not 0, {CHARGE_STRIDE}, .., "
                                      f"{CHARGE_STEPS} ({len(rows)} rows)"))
        return fails
    if np.max(np.abs(table[:, 1] - table[:, 0] * CHARGE_TAU)) > 0.0:
        fails.append(Failure("value", "charge.csv t column is not step * tau"))
    c0 = charge_at_zero(CHARGE_J)
    _, _, mean0, se0, analytic0 = table[0]
    if _rel(mean0, c0) > 1e-12 or se0 != 0.0 or _rel(analytic0, c0) > 1e-12:
        fails.append(Failure("value", f"t = 0 row ({mean0!r}, {se0!r}, {analytic0!r}) "
                                      f"is not the initial charge {c0!r}"))
    plateau = charge_plateau(CHARGE_J)
    _, _, mean, se, analytic = table[-1]
    z = (mean - plateau) / se
    if not abs(z) <= 4.0:
        fails.append(Failure("value", f"final mean charge {mean:.6f} is {z:+.2f} SE from "
                                      f"the plateau {plateau:.6f}"))
    if _rel(analytic, plateau) > 1e-12:
        fails.append(Failure("value", f"final analytic charge {analytic!r} is not the "
                                      f"plateau {plateau!r}"))
    return fails


# ----------------------------------------------------------------- order --

ORDER_LADDER = (2.0 ** -10, 2.0 ** -9, 2.0 ** -8, 2.0 ** -7)
ORDER_SLOPE_WINDOW = (0.8, 1.2)


def check_order(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "order.csv")
    if header != ["tau", "T", "error", "error_se"]:
        return [Failure("format", f"order.csv header is {header}")]
    table = np.array([[float(c) for c in row] for row in rows])
    fit_header, fit_rows = _read_csv(out / "fit.csv")
    if fit_header != ["slope", "intercept", "rms_residual"] or len(fit_rows) != 1:
        return [Failure("format", "fit.csv is not one (slope, intercept, rms_residual) row")]
    slope_csv, intercept_csv, _ = (float(c) for c in fit_rows[0])
    fails = []
    if table.shape[0] != len(ORDER_LADDER) or table[:, 0].tolist() != list(ORDER_LADDER):
        return [Failure("value", f"order.csv taus are {table[:, 0].tolist()}")]
    if not np.all(table[:, 1] == 1.0):
        fails.append(Failure("value", "order.csv horizon column is not T = 1"))
    err = table[:, 2]
    if not np.all(np.diff(err) > 0.0):
        fails.append(Failure("value", f"errors do not grow with tau: {err.tolist()}"))
    x = np.log(table[:, 0])
    y = np.log(err)
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
    intercept = float(y.mean() - slope * x.mean())
    if _rel(slope_csv, slope) > 1e-9 or _rel(intercept_csv, intercept) > 1e-9:
        fails.append(Failure("value", f"fit.csv ({slope_csv!r}, {intercept_csv!r}) is not the "
                                      f"least-squares fit ({slope!r}, {intercept!r})"))
    # The errors are root-mean-square over M = 100 realizations, and a few
    # realizations with a large coarse-step error can tilt the fit: the slope
    # lay in 0.95..1.13 on 70 random seeds but reads 1.2318 on seed 2131280743.
    # So the window is a statistical test, not a property of every output.
    lo, hi = ORDER_SLOPE_WINDOW
    if not lo <= slope <= hi:
        fails.append(Failure("statistical", f"fitted slope {slope:.4f} is outside "
                                            f"[{lo}, {hi}]"))
    return fails


# -------------------------------------------------------------- simulate --

SIM_J = 1000
SIM_TAU = 2.0 ** -10
SIM_STEPS = 1024             # T = 1
SIM_STRIDE = 8

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def simulate_reference(seed: int) -> np.ndarray:
    """Snapshots (SIM_STEPS/SIM_STRIDE + 1, SIM_J) of one trajectory of the Lie scheme

        Ψ̃ = exp(i λ τ |Ψ|²) Ψ,   L₋ Ψⁿ⁺¹ = L₊ e^{-ατ/2} Ψ̃ + ε σ Λ δβ,
        L∓ = I ∓ i τ/(2h²) A ± (ατ/4) I,   A = tridiag(1, -2, 1),

    driven by realization 0 of the documented stream: Philox keyed by
    splitmix64(seed), normals in C order over (step, mode, component) and
    δβ = √τ (n₀ + i n₁).
    """
    J, tau = SIM_J, SIM_TAU
    h = 1.0 / (J + 1)
    x = h * np.arange(1, J + 1)
    sigma_lam = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, np.arange(1, P + 1))) * np.sqrt(ETA)
    gen = np.random.Generator(np.random.Philox(key=splitmix64(seed & _MASK64)))
    normals = gen.standard_normal((SIM_STEPS, P, 2)) * np.sqrt(tau)
    dbeta = normals[..., 0] + 1j * normals[..., 1]

    r = 1j * tau / (2.0 * h ** 2)
    a = ALPHA * tau / 4.0
    ab = np.empty((3, J), dtype=complex)      # L₋ in banded storage
    ab[0, :] = -r
    ab[1, :] = 1.0 + a + 2.0 * r
    ab[2, :] = -r
    diag_plus, off_plus = 1.0 - a - 2.0 * r, r
    damp = np.exp(-ALPHA * tau / 2.0)

    forcing = EPSILON * (dbeta @ sigma_lam.T)

    psi = np.sin(np.pi * x).astype(complex)
    snaps = [psi.copy()]
    for n in range(SIM_STEPS):
        v = damp * np.exp(1j * LAM * tau * np.abs(psi) ** 2) * psi
        rhs = diag_plus * v
        rhs[1:] += off_plus * v[:-1]
        rhs[:-1] += off_plus * v[1:]
        rhs += forcing[n]
        psi = solve_banded((1, 1), ab, rhs)
        if (n + 1) % SIM_STRIDE == 0:
            snaps.append(psi.copy())
    return np.array(snaps)


NP_FLOAT = "np.float64("


def _column(cells) -> tuple:
    """(values, count of cells that are not bare decimal literals).

    A cell written as numpy's repr, np.float64(x), is counted; its value is
    still read so that the trajectory itself can be compared.
    """
    values = []
    wrapped = 0
    for cell in cells:
        if cell.startswith(NP_FLOAT) and cell.endswith(")"):
            wrapped += 1
            cell = cell[len(NP_FLOAT):-1]
        values.append(float(cell))
    return np.array(values), wrapped


def check_simulate(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "trajectory.csv")
    if header != ["step", "t", "node", "re", "im"]:
        return [Failure("format", f"trajectory.csv header is {header}")]
    n_snap = SIM_STEPS // SIM_STRIDE + 1
    if len(rows) != n_snap * SIM_J or any(len(row) != 5 for row in rows):
        return [Failure("value", f"trajectory.csv has {len(rows)} rows, "
                                 f"expected {n_snap * SIM_J} of 5 cells")]
    fails = []
    columns = [_column(cells) for cells in zip(*rows)]
    bad_cells = sum(n for _, n in columns)
    if bad_cells:
        first = next(c for row in rows for c in row if c.startswith(NP_FLOAT))
        fails.append(Failure("format", f"{bad_cells} trajectory.csv cells are not plain "
                                       f"numbers, e.g. {first!r}"))
    table = np.stack([v for v, _ in columns], axis=-1).reshape(n_snap, SIM_J, 5)
    steps = np.arange(0, SIM_STEPS + 1, SIM_STRIDE)
    if not (np.all(table[:, :, 0] == steps[:, None])
            and np.all(table[:, :, 2] == np.arange(1, SIM_J + 1))
            and np.all(table[:, :, 1] == steps[:, None] * SIM_TAU)):
        fails.append(Failure("value", "trajectory.csv (step, t, node) columns are not "
                                      "the snapshot grid"))
        return fails
    got = table[:, :, 3] + 1j * table[:, :, 4]
    ref = simulate_reference(seed)
    rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
    worst = int(np.argmax(rel))
    if not rel[worst] <= 1e-10:
        fails.append(Failure("value", f"snapshot at step {int(steps[worst])} differs from the "
                                      f"recomputed trajectory by {rel[worst]:.3e} (relative)"))
    return fails
