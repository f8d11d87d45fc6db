"""Monte Carlo experiment harness.

Experiments are described by an immutable `ExperimentConfig` and produce a
`RunRecord`: one statistics table plus a manifest echoing every knob that
affects the numbers.  Re-running a config reproduces the table bit-for-bit.

Every ensemble splits its realizations into chunks, at most `MAX_CHUNK`
(256) a chunk by default, and `_map_chunks` runs each experiment's per-chunk
function (config, lo, hi) on them: in a fork pool on the usable CPUs when
there is more than one chunk and more than one CPU (`taskset -c 0` gives
one), in this process otherwise.  The per-chunk functions drive one chunk
each through `_sweep`, which starts every column from Ψ⁰, feeds column i
from realization i's own counter-based noise stream and steps the batch with
`march`, handing each state Ψⁿ, with the forcing gⁿ that produced it, to
the experiment, and each returns its rows of the per-realization table.
Columns never mix and node sums run in node order (`column_norm2`), and the
rows are concatenated in chunk order and reduced in realization-index
order, so the aggregate is a pure function of (config, base seed): neither
the chunk size, 1 included, nor the CPU count changes a single bit.

Mean-square error studies couple every coarse run to the fine reference by
feeding it the block-sums of the gⁿ the reference consumed.
"""

from __future__ import annotations

import itertools
import os
import platform
import time
import warnings
from dataclasses import dataclass, field, replace

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
    FORCING_BLOCK_STEPS,
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
    "batch_forcing",
    "charge_experiment",
    "ergodic_experiment",
    "ms_error",
    "order_fit",
    "jackknife_se",
]

CSV_SCHEMA_VERSION = "1"

#: The BLAS thread variables the manifest records as found.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _library(config: dict, kind: str) -> str:
    """'name version' of a numpy or scipy build's BLAS or LAPACK."""
    lib = config["Build Dependencies"][kind]
    return f"{lib['name']} {lib['version']}"


#: The lines every manifest opens with.  CSV bytes are reproducible per
#: toolchain: the forcing product runs on numpy's BLAS and the linear solve on
#: scipy's LAPACK, which may be different builds, so both are named.
PROVENANCE = {
    "schema": CSV_SCHEMA_VERSION,
    "version": __version__,
    "generator": GENERATOR_NAME,
    "python": platform.python_version(),
    "numpy": np.__version__,
    "numpy_blas": _library(np.__config__.CONFIG, "blas"),
    "scipy": scipy.__version__,
    "scipy_lapack": _library(scipy.__config__.CONFIG, "lapack"),
    "blas_threads": ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in _BLAS_THREAD_VARS),
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


def _sample_mean(samples: np.ndarray):
    """Mean along axis 0; where a column's samples are all equal, that value
    itself, which the sum of n copies divided by n can miss in the last bits."""
    x = np.asarray(samples, dtype=float)
    return np.where((x == x[0]).all(axis=0), x[0], x.mean(axis=0))


def jackknife_se(samples: np.ndarray, transform=None):
    """Leave-one-out standard error of transform(mean(samples)) along axis 0.

    With `transform=None` this reduces to the classical s/√n of the sample
    mean; a single sample, or a column of equal samples, gives 0.
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
    out = np.where((x == x[0]).all(axis=0), 0.0, out)
    return out if out.ndim else float(out)


#: Default cap on the realizations one chunk batches (see `_chunks`).
MAX_CHUNK = 256


def usable_cpus() -> int:
    """The CPUs this process may run on; the one place the harness reads it."""
    return len(os.sched_getaffinity(0))


def _chunks(total: int, chunk_size):
    """Consecutive (lo, hi) ranges covering realizations 0..total-1.

    An explicit `chunk_size` is the width of every range but the last; by
    default n = ceil(total / MAX_CHUNK) ranges of ceil(total / n) each, so
    total <= MAX_CHUNK is one range.
    """
    if chunk_size is None:
        n = -(-total // MAX_CHUNK)
        size = -(-total // n)
    else:
        size = max(1, int(chunk_size))
    for lo in range(0, total, size):
        yield lo, min(total, lo + size)


def _run_chunk(task):
    fn, config, lo, hi = task
    return fn(config, lo, hi)


def _map_chunks(fn, configs, chunk_size):
    """[fn(config, lo, hi) for each config, for each of its chunks], and the
    manifest lines saying how they ran.

    With more than one chunk and more than one usable CPU the chunks run in
    a fork pool of min(CPUs, chunks) workers; otherwise they run here, one
    after another.  Results come back in chunk order (`Executor.map`), so a
    `BlowUpError` names the step and realization a serial loop over the same
    chunks would name.  A worker that dies raises `BrokenProcessPool`
    where a `multiprocessing.Pool` would wait for it forever.
    """
    tasks = [(fn, config, lo, hi) for config in configs
             for lo, hi in _chunks(config.M, chunk_size)]
    cpus = usable_cpus()
    workers = min(cpus, len(tasks))
    if workers > 1:
        # imported here, so that a single chunk never loads multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a worker starts with numpy and LAPACK loaded, where spawn
        # would pay the 0.2 s import of dsnls again in each
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_run_chunk, tasks))
    else:
        results = [_run_chunk(task) for task in tasks]
    return results, {"cpus": str(cpus), "chunks": str(len(tasks)), "workers": str(workers)}


def _ensemble_manifest(config: ExperimentConfig, t0: float, run_info: dict,
                       realizations: int) -> dict:
    """base_manifest plus how the chunks ran, the wall time since t0 and the
    throughput of `realizations` runs of config.n_steps steps each."""
    wall = time.perf_counter() - t0
    manifest = {**base_manifest(config), **run_info}
    manifest["wall_time_s"] = f"{wall:.3f}"
    manifest["realization_steps_per_s"] = f"{realizations * config.n_steps / wall:.0f}"
    return manifest


def batch_forcing(config: ExperimentConfig, tau: float, n_steps: int, realizations: range):
    """Iterator of per-step (J, m) forcing for a batch of realizations, column
    i fed from realization realizations[i]'s own stream of
    `stream_noise(config)`; None at every step when ε = 0.

    The streams are opened here; their blocks are drawn and projected as the
    rows are taken.  Each stream is projected at fixed per-realization
    shapes, so every column is bit-identical no matter how realizations are
    grouped into batches.  A yielded row is a view of one reused block
    buffer: it is valid only until the next row is drawn.
    """
    if not config.params.epsilon > 0.0:
        return itertools.repeat(None, n_steps)
    noise = stream_noise(config)
    weights = forcing_weights(config.grid, noise, config.params.epsilon)
    streams = [forcing_blocks(weights, noise, tau, n_steps, r) for r in realizations]
    buffer = np.empty((min(FORCING_BLOCK_STEPS, n_steps), config.grid.J, len(streams)),
                      dtype=complex)

    def rows():
        for a in range(0, n_steps, FORCING_BLOCK_STEPS):
            block = buffer[:min(FORCING_BLOCK_STEPS, n_steps - a)]
            for i, s in enumerate(streams):
                block[:, :, i] = next(s)
            yield from block
    return rows()


def _record_steps(n_steps: int, stride: int, include_zero: bool = True) -> list:
    steps = [k for k in range(stride, n_steps + 1, stride)]
    if not steps or steps[-1] != n_steps:
        steps.append(n_steps)
    return ([0] if include_zero else []) + steps


def _sweep(config: ExperimentConfig, prop, psi0: np.ndarray, lo: int, hi: int):
    """Run realizations lo..hi-1 from `psi0` for config.n_steps steps of prop.tau.

    Yields (n, Ψⁿ, gⁿ) step by step: Ψⁿ holds the realizations as columns
    and gⁿ is the (J, hi - lo) forcing the step into Ψⁿ took, None at n = 0
    and when ε = 0.  `march` raises `BlowUpError` naming the realization.
    """
    forcing, taken = itertools.tee(
        batch_forcing(config, prop.tau, config.n_steps, range(lo, hi)))
    psi = np.tile(psi0[:, None], (1, hi - lo))
    for n, psi in march(psi, prop, config.params, forcing, config.n_steps,
                        first_realization=lo):
        yield n, psi, None if n == 0 else next(taken)


def _charge_chunk(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, record steps): the discrete charge of realizations lo..hi-1."""
    psi0 = resolve_initial(config.grid, config.initial)
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    rec_steps = _record_steps(config.n_steps, config.record_stride)
    rec_index = {s: i for i, s in enumerate(rec_steps)}
    values = np.empty((hi - lo, len(rec_steps)))
    for n, psi, _ in _sweep(config, prop, psi0, lo, hi):
        i = rec_index.get(n)
        if i is not None:
            # a state too large to square observes as inf; march reports the blow-up
            with np.errstate(over="ignore"):
                values[:, i] = discrete_charge(psi, config.grid.h)
    return values


def charge_experiment(config: ExperimentConfig, chunk_size=None) -> RunRecord:
    """Evolution of the Monte Carlo mean discrete charge, with the analytic
    exponential-relaxation overlay toward the stationary plateau."""
    t0 = time.perf_counter()
    chunks, run_info = _map_chunks(_charge_chunk, [config], chunk_size)
    values = np.concatenate(chunks)
    h = config.grid.h
    psi0 = resolve_initial(config.grid, config.initial)
    rec_steps = _record_steps(config.n_steps, config.record_stride)
    limit = charge_limit_discrete(config.grid, config.noise, config.params)
    charge0 = float(discrete_charge(psi0, h))
    times = np.asarray(rec_steps) * config.tau
    decay = np.exp(-2.0 * config.params.alpha * times)
    analytic = decay * charge0 + limit * (1.0 - decay)

    rows = tuple(
        (int(s), float(t), float(m), float(e), float(a))
        for s, t, m, e, a in zip(rec_steps, times, _sample_mean(values),
                                 jackknife_se(values), analytic)
    )
    return RunRecord(
        kind="charge",
        columns=("step", "t", "charge_mean", "charge_se", "charge_analytic"),
        rows=rows,
        manifest=_ensemble_manifest(config, t0, run_info, config.M),
        extras={"charge_limit_discrete": limit, "charge0": charge0},
    )


def _ergodic_chunk(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, record steps, observables): the running averages of
    realizations lo..hi-1 started from config.initial."""
    psi0 = resolve_initial(config.grid, config.initial)
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    obs_fns = [OBSERVABLES[name] for name in config.observables]
    rec_steps = _record_steps(config.n_steps, config.record_stride, include_zero=False)
    rec_index = {s: i for i, s in enumerate(rec_steps)}
    values = np.empty((hi - lo, len(rec_steps), len(obs_fns)))
    sums = np.zeros((len(obs_fns), hi - lo))
    for n, psi, _ in _sweep(config, prop, psi0, lo, hi):
        if n == 0:
            continue
        i = rec_index.get(n)
        if i is not None:
            values[:, i, :] = (sums / n).T
        norm2 = column_norm2(psi)
        for k, fn in enumerate(obs_fns):
            sums[k] += fn(norm2)
    return values


def ergodic_experiment(config: ExperimentConfig, chunk_size=None) -> RunRecord:
    """Running temporal averages (1/N) Σ_{n=1}^{N-1} f(Ψⁿ) of bounded
    observables, one curve per initial profile, averaged over realizations."""
    t0 = time.perf_counter()
    per_initial = [replace(config, initial=initial) for initial in config.initials]
    chunks, run_info = _map_chunks(_ergodic_chunk, per_initial, chunk_size)
    per_run = len(chunks) // len(per_initial)
    rec_steps = _record_steps(config.n_steps, config.record_stride, include_zero=False)

    rows = []
    for j, initial in enumerate(config.initials):
        values = np.concatenate(chunks[j * per_run:(j + 1) * per_run])
        mean = _sample_mean(values)
        se = jackknife_se(values)
        for i, s in enumerate(rec_steps):
            for k, name in enumerate(config.observables):
                rows.append((float(s * config.tau), initial, name,
                             float(mean[i, k]), float(se[i, k])))
    return RunRecord(
        kind="ergodic",
        columns=("t", "initial", "observable", "mean", "se"),
        rows=tuple(rows),
        manifest=_ensemble_manifest(config, t0, run_info, config.M * len(per_initial)),
    )


def _horizon_steps(config: ExperimentConfig) -> dict:
    """{fine step: horizon} of an error/order config, in step order."""
    horizons = config.horizons if config.kind == "error" else (config.T,)
    steps = {round(t_h / config.tau_ref): t_h for t_h in horizons}
    return {s: steps[s] for s in sorted(steps)}


def _error_chunk(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, ladder, horizons): h‖Ψ_ref - Ψ_τ‖² of realizations lo..hi-1,
    both Strang-processed (see `ms_error`)."""
    grid = config.grid
    params = config.params
    ratios = [round(tc / config.tau_ref) for tc in config.tau_ladder]
    h_idx = {s: i for i, s in enumerate(_horizon_steps(config))}

    prop_fine = make_propagator(grid, config.tau_ref, params.alpha)
    props = [make_propagator(grid, tc, params.alpha) for tc in config.tau_ladder]
    psi0 = resolve_initial(grid, config.initial)

    sq = np.empty((hi - lo, len(ratios), len(h_idx)))
    lam = params.lam
    with np.errstate(over="ignore", invalid="ignore"):  # march reports a blow-up
        fine0 = nonlinear_step(psi0, -lam, 0.5 * config.tau_ref)
        coarse0 = [nonlinear_step(psi0, -lam, 0.5 * tc) for tc in config.tau_ladder]

    for n, fine, g in _sweep(config, prop_fine, fine0, lo, hi):
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
        if n in h_idx:
            fine_out = nonlinear_step(fine, lam, 0.5 * config.tau_ref)
            for c, tc in enumerate(config.tau_ladder):
                diff = fine_out - nonlinear_step(coarse[c], lam, 0.5 * tc)
                sq[:, c, h_idx[n]] = grid.h * column_norm2(diff)
    return sq


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
    chunks, run_info = _map_chunks(_error_chunk, [config], chunk_size)
    sq = np.concatenate(chunks)
    horizon_order = list(_horizon_steps(config).values())

    rows = []
    err_table = {}
    for c, tc in enumerate(config.tau_ladder):
        for i, t_h in enumerate(horizon_order):
            mean_sq = float(_sample_mean(sq[:, c, i]))
            err = float(np.sqrt(mean_sq))
            se = float(jackknife_se(sq[:, c, i], transform=np.sqrt))
            rows.append((float(tc), float(t_h), err, se))
            err_table[(tc, t_h)] = err
    return RunRecord(
        kind=config.kind,
        columns=("tau", "T", "error", "error_se"),
        rows=tuple(rows),
        manifest=_ensemble_manifest(config, t0, run_info, config.M),
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
