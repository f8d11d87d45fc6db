"""Monte Carlo experiment harness.

Experiments are described by an immutable `ExperimentConfig` and produce a
`RunRecord`: one statistics table plus the manifest lines of how it ran.
Re-running a config reproduces the table bit-for-bit.

Every ensemble splits its realizations into chunks, at most `MAX_CHUNK`
(256) a chunk by default, and `_map_chunks` runs each experiment's per-chunk
function (config, forcing) on them, `forcing` being the chunk's
`batch_forcing` source: in forked chunk worker processes on the usable CPUs
when there is more than one chunk and more than one CPU (`taskset -c 0`
gives one), in this process otherwise.  A lone chunk on two or more CPUs has
its noise drawn by a forked producer process on the idle CPU, into two shared
block slots in turn.  The per-chunk functions drive one chunk each through
`_sweep`, which starts every column from Ψ⁰, feeds column i from realization
i's own counter-based noise stream and steps the batch with `march`, handing
each state Ψⁿ, with the forcing gⁿ that produced it, to the experiment, and
each returns its rows of the per-realization table.
Columns never mix and node sums run in node order (`column_norm2`), and the
rows are concatenated in chunk order and reduced in realization-index
order, so the aggregate is a pure function of (config, base seed): neither
the chunk size, 1 included, nor the CPU count changes a single bit.

Mean-square error studies couple every coarse run to the fine reference by
feeding it the block-sums of the gⁿ the reference consumed.
"""

from __future__ import annotations

import itertools
import mmap
import os
import pickle
import platform
import signal
import struct
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _BLAS_THREADS, __version__
from .diagnostics import charge_limit_discrete, discrete_charge
from .integrator import BlowUpError, column_norm2, make_propagator, march, nonlinear_step, step
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
    "ForcingSource",
    "WorkerDied",
    "Child",
    "noise_lines",
    "ensemble_manifest",
    "charge_experiment",
    "ergodic_experiment",
    "ms_error",
    "order_fit",
    "jackknife_se",
]

CSV_SCHEMA_VERSION = "1"


def _library(kind: str) -> str:
    """'name version' of numpy's build's BLAS or LAPACK."""
    lib = np.__config__.CONFIG["Build Dependencies"][kind]
    return f"{lib['name']} {lib['version']}"


#: The lines every manifest opens with.  CSV bytes are reproducible per
#: toolchain: the forcing product runs on numpy's BLAS and the linear solve on
#: numpy's LAPACK, both in the one OpenBLAS numpy loaded.  The thread
#: variables are those that library reads, and who set them.
PROVENANCE = {
    "schema": CSV_SCHEMA_VERSION,
    "version": __version__,
    "generator": GENERATOR_NAME,
    "python": platform.python_version(),
    "numpy": np.__version__,
    "numpy_blas": _library("blas"),
    "numpy_lapack": _library("lapack"),
    "blas_threads": _BLAS_THREADS,
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
    by `resolve_initial`, each checked on `grid` here; `spectrum_desc`
    remembers how `noise.eta` was built so configs serialize back to their
    source form.  An error or order study's `tau` is its fine reference step.
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
            if not self.tau_ladder:
                raise ValueError(f"kind={self.kind} needs a tau_ladder")
            for tc in self.tau_ladder:
                if tc < self.tau or not _is_integer_multiple(tc, self.tau):
                    raise ValueError(
                        f"ladder step {tc} is not an integer multiple of tau={self.tau}")
                if not _is_integer_multiple(self.T, tc):
                    raise ValueError(f"T={self.T} is not an integer multiple of ladder step {tc}")
        if self.kind == "error":
            if not self.horizons:
                raise ValueError("kind=error needs horizons")
            if abs(max(self.horizons) - self.T) > 1e-12 * max(1.0, self.T):
                raise ValueError("T must equal the largest horizon")
            for t_h in self.horizons:
                for tc in (*self.tau_ladder, self.tau):
                    if not _is_integer_multiple(t_h, tc):
                        raise ValueError(f"horizon {t_h} is not an integer multiple of {tc}")
        if self.kind == "ergodic":
            if not self.initials:
                raise ValueError("kind=ergodic needs at least one initial profile")
            if any(e <= 0.0 for e in self.noise.eta):
                raise ValueError("ergodic experiments need strictly positive eta_k")
        for desc in (self.initial, *(self.initials if self.kind == "ergodic" else ())):
            resolve_initial(self.grid, desc)

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
    """One statistics table plus the manifest lines of how it ran."""

    kind: str
    columns: tuple
    rows: tuple
    manifest: dict
    extras: dict = field(default_factory=dict)


def base_manifest(config: ExperimentConfig) -> dict:
    """The provenance lines, and for an error or order run how its output is
    processed; the config itself is recorded once, in the manifest's config
    echo (`config.serialize_config`)."""
    if config.kind in ("error", "order"):
        return {**PROVENANCE, "processing": "strang: R(tau/2) o Lie^N o R(-tau/2)"}
    return dict(PROVENANCE)


def _sample_mean(samples: np.ndarray):
    """Mean along axis 0; where a column's samples are all equal, that value
    itself, which the sum of n copies divided by n can miss in the last bits."""
    x = np.asarray(samples, dtype=float)
    return np.where((x == x[0]).all(axis=0), x[0], x.mean(axis=0))


def jackknife_se(samples: np.ndarray, transform=None):
    """Leave-one-out standard error of transform(mean(samples)) along axis 0.

    `transform` is None or a ufunc (np.sqrt), applied in place.  With None
    this is the classical s/√n of the sample mean; a single sample, or a
    column of equal samples, gives 0.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    if n < 2:
        return np.zeros(x.shape[1:]) if x.ndim > 1 else 0.0
    loo = np.subtract(x.sum(axis=0), x)
    loo /= n - 1
    if transform is not None:
        transform(loo, out=loo)
    loo -= loo.mean(axis=0)
    out = np.sqrt((n - 1) / n * np.square(loo, out=loo).sum(axis=0))
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
    """(fn's rows, the noise timers) of one chunk: fn(config, forcing) on the
    chunk's forcing source, which is closed however fn ends.  Every sweep
    steps config.tau, an error study's reference step."""
    fn, config, lo, hi, alone = task
    with batch_forcing(config, range(lo, hi), alone) as forcing:
        rows = fn(config, forcing)
    return rows, forcing.timers()


def _map_chunks(fn, configs, chunk_size):
    """[fn(config, forcing)'s rows over each config's chunks, concatenated]
    for configs of one M, and the manifest lines saying how they ran, the
    noise lines summed over chunks.

    With more than one chunk and more than one usable CPU the chunks run in
    min(CPUs, chunks) forked worker processes (`_fork_chunks`); otherwise
    they run here, one after another, and a lone chunk may draw its noise in
    a producer process (`batch_forcing`).
    """
    spans = [(config, lo, hi) for config in configs for lo, hi in _chunks(config.M, chunk_size)]
    tasks = [(fn, config, lo, hi, len(spans) == 1) for config, lo, hi in spans]
    cpus = usable_cpus()
    workers = min(cpus, len(tasks))
    if workers > 1:
        results = _fork_chunks(tasks, workers)
    else:
        results = [_run_chunk(task) for task in tasks]
    rows, timers = zip(*results)
    per = len(rows) // len(configs)
    tables = [np.concatenate(rows[i:i + per]) for i in range(0, len(rows), per)]
    return tables, {"cpus": str(cpus), "chunks": str(len(tasks)), "workers": str(workers),
                        **noise_lines(timers)}


def _work(from_parent: int, to_parent: int, tasks) -> None:
    """The life of a chunk worker (`Child` runs it): `_run_chunk` on each of
    its (index, task) pairs, then one pickled (results, blow-up) on
    `to_parent`, the blow-up None or, at the first `BlowUpError`, its
    (index, step, realization, last finite norm) as plain values."""
    results, blowup = [], None
    for index, task in tasks:
        try:
            results.append(_run_chunk(task))
        except BlowUpError as exc:
            blowup = (index, exc.step_index, exc.realization, exc.last_finite_norm)
            break
    with open(to_parent, "wb") as fh:
        pickle.dump((results, blowup), fh)


def _fork_chunks(tasks, workers: int) -> list:
    """[_run_chunk(task) for task in tasks], run by `workers` forked chunk
    workers, worker w on tasks w, w + workers, ... (`_work`); none runs here,
    so this process never holds a chunk's forcing.

    Every payload is read to EOF and every worker reaped: one that exits
    non-zero, its payload short or whole, raises `WorkerDied`, and one that
    exits 0 has written its whole payload.  Then the lowest-index chunk's
    `BlowUpError`, the one a serial loop raises, is raised again.  On any
    failure, `KeyboardInterrupt` included, the workers not yet reaped are
    killed and reaped.
    """
    children = []
    try:
        for w in range(workers):
            children.append(Child("chunk worker process", _work, [*enumerate(tasks)][w::workers]))
        payloads = []
        for child in children:
            with open(child.from_child, "rb", closefd=False) as fh:
                payload = fh.read()
            if child.close():
                raise child.died()
            payloads.append(pickle.loads(payload))
    except BaseException:
        for child in children:
            child.close(kill=True)
        raise
    blowups = [blowup for _, blowup in payloads if blowup is not None]
    if blowups:
        raise BlowUpError(*min(blowups)[1:])
    results = [None] * len(tasks)
    for w, (done, _) in enumerate(payloads):
        results[w::workers] = done
    return results


def ensemble_manifest(config: ExperimentConfig, t0: float, run_info: dict,
                      realizations: int) -> dict:
    """base_manifest plus `run_info` (how the chunks ran, the noise lines),
    the wall time since t0 and the throughput of `realizations` runs of
    config.n_steps steps each."""
    wall = time.perf_counter() - t0
    manifest = {**base_manifest(config), **run_info}
    manifest["wall_time_s"] = f"{wall:.3f}"
    manifest["realization_steps_per_s"] = f"{realizations * config.n_steps / wall:.0f}"
    return manifest


def _open_streams(config: ExperimentConfig, realizations) -> list:
    """Each realization's `forcing_blocks` stream of `stream_noise(config)`."""
    noise = stream_noise(config)
    weights = forcing_weights(config.grid, noise, config.params.epsilon)
    # the transposed view of one complex (P, J) copy, which every stream's
    # `forcing_blocks` then projects with uncopied
    weights = np.ascontiguousarray(weights.T, dtype=complex).T
    return [forcing_blocks(weights, noise, config.tau, config.n_steps, r) for r in realizations]


def _fill(block: np.ndarray, streams) -> float:
    """Draw and project every stream's next block into its column of `block`;
    return the seconds it took."""
    t0 = time.perf_counter()
    for i, s in enumerate(streams):
        block[:, :, i] = next(s)
    return time.perf_counter() - t0


class WorkerDied(RuntimeError):
    """A process dsnls started to share a run's work died before it ended:
    a chunk worker, the noise producer or the trajectory writer.

    `process` names it and `status` says how it ended, from its exit code
    `code`: -N when signal N killed it.
    """

    def __init__(self, process: str, code: int):
        self.process = process
        self.status = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        super().__init__(f"the {process} died ({self.status})")


class Child:
    """A process forked to run body(from_parent, to_parent, *args) and exit,
    and the pipe ends this process keeps to it: it writes to `to_child`,
    which the child reads as `from_parent`, and reads from `from_child`,
    which the child writes as `to_parent`.

    Each side closes the other's ends, so either reads EOF once the other
    has closed them or died.  The child exits with body's return value (0
    for None), or 1 if body raises: after writing the traceback straight to
    file descriptor 2, or quietly on `KeyboardInterrupt`.  It ends in
    `os._exit`, so it never unwinds into the caller's frames and never
    flushes the stdio buffers it inherited.  `name` is what `died` calls it,
    with its pid.  Call `close` on every exit.
    """

    def __init__(self, name: str, body, *args):
        self.name = name
        self.code = None
        from_parent, self.to_child = os.pipe()
        self.from_child, to_parent = os.pipe()
        ends = (from_parent, to_parent)
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (*ends, self.to_child, self.from_child):
                os.close(fd)
            raise
        if self.pid:
            for fd in ends:
                os.close(fd)
            return
        code = 1
        try:
            os.close(self.to_child)
            os.close(self.from_child)
            code = body(*ends, *args) or 0
        except KeyboardInterrupt:
            pass  # the whole process group was interrupted
        except BaseException:  # reported here: a forked child must never unwind into the caller
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)

    def close(self, kill: bool = False) -> int:
        """Close this process's pipe ends, SIGKILL the child if `kill`, wait
        for it to end and return its exit code, -N if signal N killed it; the
        same code again on a later call.  A `KeyboardInterrupt` during the
        wait is raised again once the child is reaped."""
        if self.code is None:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            os.close(self.to_child)
            os.close(self.from_child)
            try:
                _, status = os.waitpid(self.pid, 0)
            except KeyboardInterrupt:
                self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
                raise
            self.code = os.waitstatus_to_exitcode(status)
        return self.code

    def died(self) -> WorkerDied:
        """The `WorkerDied` naming the child and its exit code, once reaped."""
        return WorkerDied(f"{self.name} {self.pid}", self.close())


def _produce(free: int, ready: int, config: ExperimentConfig, realizations, slots: np.ndarray,
             spans) -> None:
    """The life of a producer process (`Child` runs it).

    It opens the streams, so numpy.random and the generator state live only
    here, and says so with a one-byte token.  It fills block k in place in
    shared slot k mod 2, from block 2 on once block k - 2's "free" token has
    come, and answers "ready" with the fill's seconds.  It ends after the
    last block, or at EOF on `free` or a broken `ready` pipe: the consumer
    has closed.
    """
    streams = _open_streams(config, realizations)
    try:
        os.write(ready, b"s")
        for k, rows in enumerate(spans):
            if k >= 2 and not os.read(free, 1):
                return
            os.write(ready, struct.pack("d", _fill(slots[k % 2, :rows], streams)))
    except BrokenPipeError:
        pass


class ForcingSource:
    """The iterator `batch_forcing` returns, and the record of its noise work.

    Close it, or leave its `with` block, on every exit: that closes the
    pipes to its producer process, which then exits, and reaps it.
    """

    def __init__(self, config: ExperimentConfig, realizations, alone: bool):
        self.realizations = realizations
        self.noise_s = self.noise_wait_s = 0.0
        self.normals = 0
        self._producer = None
        if not config.params.epsilon > 0.0:
            self._rows = itertools.repeat(None, config.n_steps)
            return
        spans = [min(FORCING_BLOCK_STEPS, config.n_steps - a)
                 for a in range(0, config.n_steps, FORCING_BLOCK_STEPS)]
        shape = (spans[0] if spans else 0, config.grid.J, len(realizations))
        self._normals_per_step = 2 * stream_noise(config).P * len(realizations)
        if alone and len(spans) > 1 and usable_cpus() > 1:
            # two block slots shared with the producer: the only blocks this process maps
            shared = mmap.mmap(-1, 2 * np.dtype(complex).itemsize * int(np.prod(shape)))
            slots = np.frombuffer(shared, dtype=complex).reshape(2, *shape)
            self._producer = Child("noise producer process", _produce, config, realizations,
                                   slots, spans)
            try:
                self._receive(1)  # the streams are open, as on the in-process path
            except BaseException:
                self.close()
                raise
            self._rows = self._rows_from_producer(slots, spans)
        else:
            streams = _open_streams(config, realizations)
            self._rows = self._rows_here(streams, np.empty(shape, dtype=complex), spans)

    def _rows_here(self, streams, buffer: np.ndarray, spans):
        for rows in spans:
            block = buffer[:rows]
            self.noise_s += _fill(block, streams)
            self.normals += rows * self._normals_per_step
            yield from block

    def _rows_from_producer(self, slots: np.ndarray, spans):
        for k, rows in enumerate(spans):
            self.noise_s += struct.unpack("d", self._receive(8))[0]
            self.normals += rows * self._normals_per_step
            yield from slots[k % 2, :rows]
            if k + 2 < len(spans):  # the next row is asked for: block k's slot is spent
                try:
                    os.write(self._producer.to_child, b"f")
                except BrokenPipeError:
                    pass  # the producer has died; `_receive` reads its EOF

    def _receive(self, size: int) -> bytes:
        """The producer's next token, of `size` bytes, timed as waiting; a
        `WorkerDied` with its exit status if it died instead."""
        t0 = time.perf_counter()
        token = os.read(self._producer.from_child, size)
        self.noise_wait_s += time.perf_counter() - t0
        if len(token) == size:
            return token
        raise self._producer.died()

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._rows)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Drop the rows and their blocks, and close the pipes to the
        producer, which then exits, and reap it."""
        self._rows = iter(())  # its frame refers back to this source
        if self._producer is not None:
            self._producer.close()

    def timers(self) -> dict:
        """Where the noise was drawn, the seconds spent drawing and projecting
        it (timed per block, where the work happens), the seconds this
        process waited for a producer, and the normals drawn."""
        return {"noise": "in process" if self._producer is None else "producer process",
                "noise_s": self.noise_s, "noise_wait_s": self.noise_wait_s,
                "normals": self.normals}


def noise_lines(timers) -> dict:
    """The manifest's noise lines: `ForcingSource.timers()` summed over chunks."""
    return {
        "noise": ("producer process" if any(t["noise"] == "producer process" for t in timers)
                  else "in process"),
        "noise_s": f"{sum(t['noise_s'] for t in timers):.3f}",
        "noise_wait_s": f"{sum(t['noise_wait_s'] for t in timers):.3f}",
        "normals": str(sum(t["normals"] for t in timers)),
    }


def batch_forcing(config: ExperimentConfig, realizations: range,
                  alone: bool = False) -> ForcingSource:
    """A `ForcingSource` of the per-step (J, m) forcing of config.n_steps steps
    for a batch of realizations, column i fed from realization
    realizations[i]'s own stream of `stream_noise(config)`; None when ε = 0.

    Each stream is drawn and projected in blocks of `FORCING_BLOCK_STEPS`
    steps at fixed per-realization shapes (`_fill`), so every column is
    bit-identical no matter how realizations are grouped into batches or
    which process draws them.  A yielded row is a view of one block buffer:
    it is valid only until the next row is taken.

    The blocks are filled in this process as the rows are taken, unless the
    batch is `alone` (the run's only task, so a second CPU would idle), spans
    more than one block and this process may run on two or more CPUs
    (`usable_cpus`).  Then a producer process forked as a `Child` opens the
    streams and fills block k + 1, in place in one of two block slots shared
    with this process, while the caller marches block k (`_produce`).  A
    producer that dies raises `WorkerDied` with its exit status.
    """
    return ForcingSource(config, realizations, alone)


def _record_steps(n_steps: int, stride: int, include_zero: bool = True) -> list:
    steps = [k for k in range(stride, n_steps + 1, stride)]
    if not steps or steps[-1] != n_steps:
        steps.append(n_steps)
    return ([0] if include_zero else []) + steps


def _sweep(config: ExperimentConfig, prop, psi0: np.ndarray, forcing: ForcingSource):
    """Run the realizations `forcing` feeds from `psi0` for config.n_steps
    steps of prop.tau.

    Yields (n, Ψⁿ, gⁿ) step by step: Ψⁿ holds the realizations as columns
    and gⁿ is the (J, m) forcing the step into Ψⁿ took, None at n = 0
    and when ε = 0.  `march` raises `BlowUpError` naming the realization.
    """
    rows, taken = itertools.tee(forcing)
    psi = np.tile(psi0[:, None], (1, len(forcing.realizations)))
    for n, psi in march(psi, prop, config.params, rows, config.n_steps,
                        first_realization=forcing.realizations.start):
        yield n, psi, None if n == 0 else next(taken)


def _charge_chunk(config: ExperimentConfig, forcing: ForcingSource) -> np.ndarray:
    """(m, record steps): the discrete charge of the m realizations `forcing` feeds."""
    psi0 = resolve_initial(config.grid, config.initial)
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    rec_steps = _record_steps(config.n_steps, config.record_stride)
    rec_index = {s: i for i, s in enumerate(rec_steps)}
    values = np.empty((len(forcing.realizations), len(rec_steps)))
    for n, psi, _ in _sweep(config, prop, psi0, forcing):
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
    (values,), run_info = _map_chunks(_charge_chunk, [config], chunk_size)
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
        manifest=ensemble_manifest(config, t0, run_info, config.M),
        extras={"charge_limit_discrete": limit, "charge0": charge0},
    )


def _ergodic_chunk(config: ExperimentConfig, forcing: ForcingSource) -> np.ndarray:
    """(m, record steps, observables): the running averages of the m
    realizations `forcing` feeds, started from config.initial."""
    psi0 = resolve_initial(config.grid, config.initial)
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    obs_fns = [OBSERVABLES[name] for name in config.observables]
    rec_steps = _record_steps(config.n_steps, config.record_stride, include_zero=False)
    rec_index = {s: i for i, s in enumerate(rec_steps)}
    m = len(forcing.realizations)
    values = np.empty((m, len(rec_steps), len(obs_fns)))
    sums = np.zeros((len(obs_fns), m))
    for n, psi, _ in _sweep(config, prop, psi0, forcing):
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
    tables, run_info = _map_chunks(_ergodic_chunk, per_initial, chunk_size)
    rec_steps = _record_steps(config.n_steps, config.record_stride, include_zero=False)

    rows = []
    for initial, values in zip(config.initials, tables):
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
        manifest=ensemble_manifest(config, t0, run_info, config.M * len(per_initial)),
    )


def _horizon_steps(config: ExperimentConfig) -> dict:
    """{fine step: horizon} of an error/order config, in step order."""
    horizons = config.horizons if config.kind == "error" else (config.T,)
    steps = {round(t_h / config.tau): t_h for t_h in horizons}
    return {s: steps[s] for s in sorted(steps)}


def _error_chunk(config: ExperimentConfig, forcing: ForcingSource) -> np.ndarray:
    """(m, ladder, horizons): h‖Ψ_ref - Ψ_τ‖² of the m realizations `forcing`
    feeds, both Strang-processed (see `ms_error`)."""
    grid = config.grid
    params = config.params
    ratios = [round(tc / config.tau) for tc in config.tau_ladder]
    h_idx = {s: i for i, s in enumerate(_horizon_steps(config))}

    prop_fine = make_propagator(grid, config.tau, params.alpha)
    props = [make_propagator(grid, tc, params.alpha) for tc in config.tau_ladder]
    psi0 = resolve_initial(grid, config.initial)

    m = len(forcing.realizations)
    sq = np.empty((m, len(ratios), len(h_idx)))
    lam = params.lam
    with np.errstate(over="ignore", invalid="ignore"):  # march reports a blow-up
        fine0 = nonlinear_step(psi0, -lam, 0.5 * config.tau)
        coarse0 = [nonlinear_step(psi0, -lam, 0.5 * tc) for tc in config.tau_ladder]

    for n, fine, g in _sweep(config, prop_fine, fine0, forcing):
        if n == 0:
            coarse = [np.tile(c0[:, None], (1, m)) for c0 in coarse0]
            acc = [np.zeros_like(c) for c in coarse]
            continue
        for c, ratio in enumerate(ratios):
            if g is not None:
                acc[c] += g
            if n % ratio == 0:
                coarse[c] = step(coarse[c], props[c], params, None if g is None else acc[c])
                acc[c][:] = 0.0
        if n in h_idx:
            fine_out = nonlinear_step(fine, lam, 0.5 * config.tau)
            for c, tc in enumerate(config.tau_ladder):
                diff = fine_out - nonlinear_step(coarse[c], lam, 0.5 * tc)
                sq[:, c, h_idx[n]] = grid.h * column_norm2(diff)
    return sq


def ms_error(config: ExperimentConfig, chunk_size=None) -> RunRecord:
    """Coupled mean-square errors (h E‖Ψ_ref(T) - Ψ_τ(T)‖²)^{1/2}.

    The reference is the scheme itself at config.tau; every ladder run
    consumes the block-sums of the reference's own forcing increments, so the
    coupling is exact by construction.  `march` checks the reference for blow-up at
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
    (sq,), run_info = _map_chunks(_error_chunk, [config], chunk_size)
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
        manifest=ensemble_manifest(config, t0, run_info, config.M),
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
