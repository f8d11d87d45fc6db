"""Monte Carlo experiment harness.

Experiments are described by an immutable `ExperimentConfig` and produce a
`RunRecord`: one statistics table plus a manifest echoing every knob that
affects the numbers.  Re-running a config reproduces the table bit-for-bit.

One driver, `_sweep`, runs every ensemble.  It batches the realizations in
chunks, starts each column from Ψ⁰, feeds column i from realization i's own
counter-based noise stream and steps the batch with `march`, handing each
state Ψⁿ, with the forcing gⁿ that produced it, to the experiment.  Columns
never mix and node sums run in node order (`column_norm2`), so the aggregate
is a pure function of (config, base seed): neither the chunk size used to
batch realizations, 1 included, nor any scheduling order changes a single
bit.  Reductions over realizations run in index order.

Mean-square error studies couple every coarse run to the fine reference by
feeding it the block-sums of the gⁿ the reference consumed.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .diagnostics import charge_limit_discrete, discrete_charge
from .integrator import column_norm2, make_propagator, march, nonlinear_step, step
from .model import (
    GridSpec,
    ModelParams,
    NoiseSpec,
    sample_initial,
)
from .noise import (
    FORCING_BLOCK_STEPS as _BLOCK_STEPS,
    GENERATOR_NAME,
    fold_noise,
    forcing_blocks,
    forcing_weights,
)

__all__ = [
    "CSV_SCHEMA_VERSION",
    "PROVENANCE",
    "OBSERVABLES",
    "ExperimentConfig",
    "RunRecord",
    "OrderFit",
    "resolve_initial",
    "stream_noise",
    "charge_experiment",
    "ergodic_experiment",
    "ms_error",
    "order_fit",
    "jackknife_se",
]

CSV_SCHEMA_VERSION = "1"

#: The lines every manifest opens with.  CSV bytes are reproducible per
#: toolchain, since the linear solve is LAPACK's, so numpy and scipy are named.
PROVENANCE = {
    "schema": CSV_SCHEMA_VERSION,
    "version": __version__,
    "generator": GENERATOR_NAME,
    "numpy": np.__version__,
    "scipy": scipy.__version__,
}

EXPERIMENT_KINDS = ("simulate", "charge", "ergodic", "error", "order")

#: Bounded continuous observables of the squared state norm ‖Ψ‖².
OBSERVABLES = {
    "exp-norm2": lambda norm2: np.exp(-norm2),
    "sin-norm2": lambda norm2: np.sin(norm2),
}


def _is_integer_multiple(value: float, unit: float) -> bool:
    ratio = value / unit
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio))


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible experiment description.

    `initial` (and the ergodic `initials`) are profile descriptors understood
    by `resolve_initial`; `spectrum_desc` remembers how `noise.eta` was built
    so configs serialize back to their source form.
    """

    kind: str
    params: ModelParams
    grid: GridSpec
    noise: NoiseSpec
    spectrum_desc: str
    tau: float
    T: float
    M: int
    initial: str = "sine"
    initials: tuple = ()
    observables: tuple = ("exp-norm2", "sin-norm2")
    tau_ladder: tuple = ()
    tau_ref: float = None
    horizons: tuple = ()
    record_stride: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.T > 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if not _is_integer_multiple(self.T, self.tau):
            raise ValueError(f"T={self.T} is not an integer multiple of tau={self.tau}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        for name in self.observables:
            if name not in OBSERVABLES:
                raise ValueError(f"unknown observable {name!r}")
        if self.kind in ("error", "order"):
            if self.tau_ref is None:
                raise ValueError(f"kind={self.kind} needs tau_ref")
            if self.tau != self.tau_ref:
                raise ValueError(
                    f"kind={self.kind} drives the reference scheme, so tau ({self.tau}) "
                    f"must equal tau_ref ({self.tau_ref})")
            if not self.tau_ladder:
                raise ValueError(f"kind={self.kind} needs a tau_ladder")
            for tc in self.tau_ladder:
                if tc < self.tau_ref or not _is_integer_multiple(tc, self.tau_ref):
                    raise ValueError(
                        f"ladder step {tc} is not an integer multiple of tau_ref={self.tau_ref}")
                if not _is_integer_multiple(self.T, tc):
                    raise ValueError(f"T={self.T} is not an integer multiple of ladder step {tc}")
        if self.kind == "error":
            if not self.horizons:
                raise ValueError("kind=error needs horizons")
            if abs(max(self.horizons) - self.T) > 1e-12 * max(1.0, self.T):
                raise ValueError("T must equal the largest horizon")
            for t_h in self.horizons:
                for tc in (*self.tau_ladder, self.tau_ref):
                    if not _is_integer_multiple(t_h, tc):
                        raise ValueError(f"horizon {t_h} is not an integer multiple of {tc}")
        if self.kind == "ergodic":
            if not self.initials:
                raise ValueError("kind=ergodic needs at least one initial profile")
            if any(e <= 0.0 for e in self.noise.eta):
                raise ValueError("ergodic experiments need strictly positive eta_k")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.tau)


def resolve_initial(grid: GridSpec, desc: str) -> np.ndarray:
    """Named profile, or ``explicit: re+imj, ...`` with exactly J entries."""
    if desc.startswith("explicit:"):
        entries = [complex(tok.strip().replace(" ", "")) for tok in desc[len("explicit:"):].split(",")]
        return sample_initial(grid, entries)
    return sample_initial(grid, desc)


def stream_noise(config: ExperimentConfig) -> NoiseSpec:
    """The spec every realization's stream draws from: config.noise folded
    onto the grid's modes (`noise.fold_noise`)."""
    return fold_noise(config.grid, config.noise)


@dataclass(frozen=True)
class RunRecord:
    """One statistics table plus the manifest of everything that shaped it."""

    kind: str
    columns: tuple
    rows: tuple
    manifest: dict
    extras: dict = field(default_factory=dict)


def base_manifest(config: ExperimentConfig) -> dict:
    man = {
        **PROVENANCE,
        "kind": config.kind,
        "alpha": repr(config.params.alpha),
        "lambda": repr(config.params.lam),
        "epsilon": repr(config.params.epsilon),
        "J": repr(config.grid.J),
        "h": repr(config.grid.h),
        "P": repr(config.noise.P),
        "spectrum": config.spectrum_desc,
        "seed": repr(config.noise.seed),
        "tau": repr(config.tau),
        "T": repr(config.T),
        "M": repr(config.M),
        "record_stride": repr(config.record_stride),
        "initial": str(config.initial),
    }
    if config.initials:
        man["initials"] = ", ".join(config.initials)
        man["observables"] = ", ".join(config.observables)
    if config.tau_ref is not None:
        man["tau_ref"] = repr(config.tau_ref)
    if config.kind in ("error", "order"):
        man["processing"] = "strang: R(tau/2) o Lie^N o R(-tau/2)"
    if config.tau_ladder:
        man["tau_ladder"] = ", ".join(repr(t) for t in config.tau_ladder)
    if config.horizons:
        man["horizons"] = ", ".join(repr(t) for t in config.horizons)
    return man


def jackknife_se(samples: np.ndarray, transform=None):
    """Leave-one-out standard error of transform(mean(samples)) along axis 0.

    With `transform=None` this reduces to the classical s/√n of the sample
    mean; a single sample gives 0.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    if n < 2:
        return np.zeros(x.shape[1:]) if x.ndim > 1 else 0.0
    loo = (x.sum(axis=0) - x) / (n - 1)
    if transform is not None:
        loo = transform(loo)
    center = loo.mean(axis=0)
    out = np.sqrt((n - 1) / n * ((loo - center) ** 2).sum(axis=0))
    return out if out.ndim else float(out)


def _chunks(total: int, chunk_size):
    size = total if chunk_size is None else max(1, int(chunk_size))
    lo = 0
    while lo < total:
        hi = min(total, lo + size)
        yield lo, hi
        lo = hi


def _batch_forcing(config: ExperimentConfig, tau: float, n_steps: int, realizations: range):
    """Per-step (J, m) forcing for a batch of realizations, column i fed from
    realization realizations[i]'s own stream of `stream_noise(config)`; None at
    every step when ε = 0.

    Each stream is projected at fixed per-realization shapes, so every column
    is bit-identical no matter how realizations are grouped into batches.
    """
    params = config.params
    if not params.epsilon > 0.0:
        yield from itertools.repeat(None, n_steps)
        return
    noise = stream_noise(config)
    weights = forcing_weights(config.grid, noise, params.epsilon)
    streams = [forcing_blocks(weights, noise, tau, n_steps, r, _BLOCK_STEPS)
               for r in realizations]
    for a in range(0, n_steps, _BLOCK_STEPS):
        block = np.empty((min(_BLOCK_STEPS, n_steps - a), config.grid.J, len(streams)),
                         dtype=complex)
        for i, s in enumerate(streams):
            block[:, :, i] = next(s)  # filled in place, so no block is held twice
        yield from block


def _record_steps(n_steps: int, stride: int, include_zero: bool = True) -> list:
    steps = [k for k in range(stride, n_steps + 1, stride)]
    if not steps or steps[-1] != n_steps:
        steps.append(n_steps)
    return ([0] if include_zero else []) + steps


def _sweep(config: ExperimentConfig, prop, psi0: np.ndarray, chunk_size):
    """Run every realization from `psi0` for config.n_steps steps of prop.tau.

    Yields (lo, hi, n, Ψⁿ, gⁿ) chunk by chunk and step by step: Ψⁿ holds
    realizations lo..hi-1 as columns and gⁿ is the (J, hi - lo) forcing the
    step into Ψⁿ took, None at n = 0 and when ε = 0.  `march` raises
    `BlowUpError` naming the realization.
    """
    for lo, hi in _chunks(config.M, chunk_size):
        forcing, taken = itertools.tee(
            _batch_forcing(config, prop.tau, config.n_steps, range(lo, hi)))
        psi = np.tile(psi0[:, None], (1, hi - lo))
        for n, psi in march(psi, prop, config.params, forcing, config.n_steps,
                            first_realization=lo):
            yield lo, hi, n, psi, None if n == 0 else next(taken)


def charge_experiment(config: ExperimentConfig, chunk_size=None) -> RunRecord:
    """Evolution of the Monte Carlo mean discrete charge, with the analytic
    exponential-relaxation overlay toward the stationary plateau."""
    t0 = time.perf_counter()
    h = config.grid.h
    psi0 = resolve_initial(config.grid, config.initial)
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    rec_steps = _record_steps(config.n_steps, config.record_stride)
    rec_index = {s: i for i, s in enumerate(rec_steps)}
    values = np.empty((config.M, len(rec_steps)))
    for lo, hi, n, psi, _ in _sweep(config, prop, psi0, chunk_size):
        i = rec_index.get(n)
        if i is not None:
            # a state too large to square observes as inf; march reports the blow-up
            with np.errstate(over="ignore"):
                values[lo:hi, i] = discrete_charge(psi, h)
    limit = charge_limit_discrete(config.grid, config.noise, config.params)
    charge0 = float(discrete_charge(psi0, h))
    times = np.asarray(rec_steps) * config.tau
    decay = np.exp(-2.0 * config.params.alpha * times)
    analytic = decay * charge0 + limit * (1.0 - decay)

    rows = tuple(
        (int(s), float(t), float(m), float(e), float(a))
        for s, t, m, e, a in zip(rec_steps, times, values.mean(axis=0),
                                 jackknife_se(values), analytic)
    )
    manifest = base_manifest(config)
    manifest["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
    return RunRecord(
        kind="charge",
        columns=("step", "t", "charge_mean", "charge_se", "charge_analytic"),
        rows=rows,
        manifest=manifest,
        extras={"charge_limit_discrete": limit, "charge0": charge0},
    )


def ergodic_experiment(config: ExperimentConfig, chunk_size=None) -> RunRecord:
    """Running temporal averages (1/N) Σ_{n=1}^{N-1} f(Ψⁿ) of bounded
    observables, one curve per initial profile, averaged over realizations."""
    t0 = time.perf_counter()
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    obs_fns = [OBSERVABLES[name] for name in config.observables]
    n_obs = len(obs_fns)
    rec_steps = _record_steps(config.n_steps, config.record_stride, include_zero=False)
    rec_index = {s: i for i, s in enumerate(rec_steps)}

    rows = []
    for initial in config.initials:
        psi0 = resolve_initial(config.grid, initial)
        values = np.empty((config.M, len(rec_steps), n_obs))
        for lo, hi, n, psi, _ in _sweep(config, prop, psi0, chunk_size):
            if n == 0:
                sums = np.zeros((n_obs, hi - lo))
                continue
            i = rec_index.get(n)
            if i is not None:
                values[lo:hi, i, :] = (sums / n).T
            norm2 = column_norm2(psi)
            for k, fn in enumerate(obs_fns):
                sums[k] += fn(norm2)
        mean = values.mean(axis=0)
        se = jackknife_se(values)
        for i, s in enumerate(rec_steps):
            for k, name in enumerate(config.observables):
                rows.append((float(s * config.tau), initial, name,
                             float(mean[i, k]), float(se[i, k])))
    manifest = base_manifest(config)
    manifest["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
    return RunRecord(
        kind="ergodic",
        columns=("t", "initial", "observable", "mean", "se"),
        rows=tuple(rows),
        manifest=manifest,
    )


def ms_error(config: ExperimentConfig, chunk_size=None) -> RunRecord:
    """Coupled mean-square errors (h E‖Ψ_ref(T) - Ψ_τ(T)‖²)^{1/2}.

    The reference is the scheme itself at tau_ref; every ladder run consumes
    the block-sums of the reference's own forcing increments, so the coupling
    is exact by construction.  `march` checks the reference for blow-up at
    every step; the ladder runs share its increments and its growth bound
    ‖Ψⁿ‖ <= ‖Ψ⁰‖ + Σ‖g‖, and are not checked again.

    Every run, the reference included, reports the Strang-processed output
    R(τ/2) ∘ Lieᴺ ∘ R(-τ/2) at its own τ, where R is the phase rotation.  R
    keeps every node modulus, so R(a) ∘ R(b) = R(a + b), and this equals N
    Strang steps R(τ/2) L R(τ/2) exactly, noise inside L included: second
    order when ε = 0, where raw Lie iterates are first order.  The steps
    taken are the unchanged Lie steps; the exit rotation acts on a copy.
    """
    t0 = time.perf_counter()
    grid = config.grid
    params = config.params
    horizons = config.horizons if config.kind == "error" else (config.T,)
    ratios = [round(tc / config.tau_ref) for tc in config.tau_ladder]
    horizon_steps = {round(t_h / config.tau_ref): t_h for t_h in horizons}

    prop_fine = make_propagator(grid, config.tau_ref, params.alpha)
    props = [make_propagator(grid, tc, params.alpha) for tc in config.tau_ladder]
    psi0 = resolve_initial(grid, config.initial)

    sq = np.empty((config.M, len(ratios), len(horizons)))
    h_idx = {s: i for i, s in enumerate(sorted(horizon_steps))}
    horizon_order = [horizon_steps[s] for s in sorted(horizon_steps)]

    lam = params.lam
    with np.errstate(over="ignore", invalid="ignore"):  # march reports a blow-up
        fine0 = nonlinear_step(psi0, -lam, 0.5 * config.tau_ref)
        coarse0 = [nonlinear_step(psi0, -lam, 0.5 * tc) for tc in config.tau_ladder]

    for lo, hi, n, fine, g in _sweep(config, prop_fine, fine0, chunk_size):
        if n == 0:
            coarse = [np.tile(c0[:, None], (1, hi - lo)) for c0 in coarse0]
            acc = [np.zeros_like(c) for c in coarse]
            continue
        for c, ratio in enumerate(ratios):
            if g is not None:
                acc[c] += g
            if n % ratio == 0:
                coarse[c] = step(coarse[c], props[c], params, None if g is None else acc[c])
                acc[c][:] = 0.0
        if n in horizon_steps:
            fine_out = nonlinear_step(fine, lam, 0.5 * config.tau_ref)
            for c, tc in enumerate(config.tau_ladder):
                diff = fine_out - nonlinear_step(coarse[c], lam, 0.5 * tc)
                sq[lo:hi, c, h_idx[n]] = grid.h * column_norm2(diff)

    rows = []
    err_table = {}
    for c, tc in enumerate(config.tau_ladder):
        for i, t_h in enumerate(horizon_order):
            mean_sq = float(sq[:, c, i].mean())
            err = float(np.sqrt(mean_sq))
            se = float(jackknife_se(sq[:, c, i], transform=np.sqrt))
            rows.append((float(tc), float(t_h), err, se))
            err_table[(tc, t_h)] = err
    manifest = base_manifest(config)
    manifest["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
    return RunRecord(
        kind=config.kind,
        columns=("tau", "T", "error", "error_se"),
        rows=tuple(rows),
        manifest=manifest,
        extras={"errors": err_table},
    )


@dataclass(frozen=True)
class OrderFit:
    """Least-squares fit of log(error) against log(tau)."""

    slope: float
    intercept: float
    residual: float


def order_fit(errors) -> OrderFit:
    """Fit error ≈ exp(intercept) · tau^slope; needs >= 3 positive points.

    Non-positive errors (coupled self-comparisons) are excluded with a warning.
    """
    pts = []
    for tau, err in errors:
        if err > 0.0:
            pts.append((float(tau), float(err)))
        else:
            warnings.warn(f"order_fit: dropping non-positive error {err} at tau={tau}")
    if len(pts) < 3:
        raise ValueError(f"order_fit needs >= 3 positive points, got {len(pts)}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return OrderFit(slope=float(slope), intercept=float(intercept),
                    residual=float(np.sqrt(np.mean(resid ** 2))))
