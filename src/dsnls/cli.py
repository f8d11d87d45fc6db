"""Command-line front end.

Subcommands: simulate, charge, ergodic, error, order, diagnose, presets.
Experiment subcommands take a config file (--config) or a preset (--preset),
optional --set key=value overrides, a --seed override, and an output
directory.  Every run writes the statistics tables as CSV plus one plain-text
manifest; re-running the same config and seed reproduces the CSV bytes.

Exit codes: 0 success, 2 config/usage error, 3 numerical blow-up,
4 diagnose-mode check failure, 5 I/O error, 6 a worker process died (a chunk
worker, the noise producer or the trajectory writer).  A blow-up still
writes a partial manifest that names the step and the realization that
failed, and the norm of that realization's last finite state; a dead worker
one that names the process, its pid and its exit status.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import harness
from .config import ConfigError, parse_config, serialize_config
from .diagnostics import run_diagnostic_suite
from .harness import (
    PROVENANCE,
    WorkerDied,
    base_manifest,
    batch_forcing,
    charge_experiment,
    ensemble_manifest,
    ergodic_experiment,
    ms_error,
    noise_lines,
    order_fit,
    resolve_initial,
)
from .integrator import BlowUpError, integrate, make_propagator
from .model import NoiseSpec
# only for perfbench/child.py's tracer, which looks it up here (ROADMAP item 1)
from .noise import generate_path  # noqa: F401
from .presets import PRESETS, preset_config

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_DIAGNOSE = 4
EXIT_IO = 5
EXIT_WORKER = 6


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() drops a numpy scalar's type name from its repr
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _snapshot_lines(step: int, t: float, state, nodes) -> str:
    """trajectory.csv's lines of one snapshot: state at step `step`, time t.

    No cell of these rows needs quoting, so csv.writer's line is the cells'
    str/repr joined by "," and ended by "\r\n"; formatting it directly skips
    a `_fmt` call per cell and a `writerow` per line.
    """
    head = f"{step},{t!r},"
    return "".join([f"{head}{node},{re!r},{im!r}\r\n" for node, re, im
                    in zip(nodes, state.real.tolist(), state.imag.tolist())])


def _write_snapshots(path: Path, snapshots, nodes) -> None:
    """trajectory.csv's header and the lines of `snapshots`, one at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("step,t,node,re,im\r\n")
        for snapshot in snapshots:
            fh.write(_snapshot_lines(*snapshot, nodes))


def _append_snapshots(token: int, _to_parent: int, path: Path, snapshots, nodes) -> int:
    """The trajectory writer process (`harness.Child` runs it): format
    `snapshots` in memory, then, on a token, append them to `path`; its exit
    code, EXIT_IO if the append fails.  At EOF without a token, which the
    parent sends only once it has written and closed the file's first part,
    it appends nothing."""
    text = "".join([_snapshot_lines(*snapshot, nodes) for snapshot in snapshots])
    if not os.read(token, 1):
        return EXIT_OK
    try:
        with open(path, "a", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        os.write(2, f"i/o error: {exc}\n".encode())
        return EXIT_IO
    return EXIT_OK


def _write_trajectory(path: Path, steps, tau: float, states) -> dict:
    """trajectory.csv with `_write_csv`'s bytes: state states[i] at step
    steps[i] and time steps[i] · tau, one snapshot's lines at a time; the
    manifest's `trajectory_writers` line.

    With two or more snapshots and two or more usable CPUs, a writer process
    forked as a `harness.Child` formats the second half of the
    snapshots in its own memory while this process writes the header and
    the first half.  Once this process has closed the file it sends a
    token, and the writer appends its half.  Both halves go through
    `_snapshot_lines`, so the bytes do not depend on the split.  A writer
    that dies, or exits non-zero, raises `WorkerDied`, or `OSError` if its
    append failed; `_emit` then removes the file.
    """
    nodes = [str(j) for j in range(1, states.shape[1] + 1)]
    snapshots = list(zip(steps.tolist(), (steps * tau).tolist(), states))
    half = len(snapshots) // 2 if harness.usable_cpus() > 1 else 0
    if not half:
        _write_snapshots(path, snapshots, nodes)
        return {"trajectory_writers": "1"}
    writer = harness.Child("trajectory writer process", _append_snapshots, path,
                           snapshots[half:], nodes)
    try:
        _write_snapshots(path, snapshots[:half], nodes)
        try:
            os.write(writer.to_child, b"a")
        except BrokenPipeError:
            pass  # the writer has died; reaping it says how
    finally:
        code = writer.close()
    if code:
        if code == EXIT_IO:
            raise OSError(f"the trajectory writer process {writer.pid} could not append to {path}")
        raise writer.died()
    return {"trajectory_writers": "2"}


def _write_manifest(path: Path, manifest: dict, config_text: str | None,
                    command: str, overrides) -> None:
    lines = [f"command = {command}"]
    if overrides:
        lines.append("overrides = " + "; ".join(overrides))
    for key, value in manifest.items():
        lines.append(f"{key} = {value}")
    if config_text is not None:
        lines.append("")
        lines.append("# config echo")
        for cfg_line in config_text.rstrip("\n").splitlines():
            lines.append("| " + cfg_line)
    path.write_text("\n".join(lines) + "\n")


def _load_config(args, command: str):
    """The config of --config or --preset with the overrides applied; a
    `ConfigError` unless its kind is `command`."""
    if args.preset and args.config:
        raise ConfigError("give either --config or --preset, not both")
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"noise.seed={args.seed}")
    if args.preset:
        config = preset_config(args.preset, overrides)
    elif args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        config = parse_config(text, overrides)
    else:
        raise ConfigError("an experiment subcommand needs --config PATH or --preset NAME")
    if config.kind != command:
        raise ConfigError(
            f"config kind '{config.kind}' does not match subcommand '{command}' "
            f"(use --set kind={command} to retarget)")
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out: Path, manifest: dict, config_text: str | None, command: str, overrides,
          *tables) -> None:
    """Write each (writer, file name, *data) table, then the manifest with
    the lines a writer returns and their write_s.  A writer that raises has
    its file removed, so no partial table is left behind."""
    t0 = time.perf_counter()
    for write, name, *data in tables:
        try:
            manifest.update(write(out / name, *data) or {})
        except BaseException:
            (out / name).unlink(missing_ok=True)
            raise
    manifest["write_s"] = f"{time.perf_counter() - t0:.3f}"
    _write_manifest(out / "manifest.txt", manifest, config_text, command, overrides)


@contextmanager
def _partial_manifest(out: Path, config, command: str, overrides):
    """Let a `BlowUpError` or a `WorkerDied` through to its exit code, after
    writing a partial manifest: the provenance lines; `status = blow-up`
    with the step and realization that failed and that realization's last
    finite norm ‖Ψⁿ⁻¹‖, or `status = worker-died` with the process that
    died and its exit status; then the config echo."""
    try:
        yield
    except (BlowUpError, WorkerDied) as exc:
        if isinstance(exc, BlowUpError):
            failure = {"status": "blow-up", "failed_step": str(exc.step_index),
                       "failed_realization": str(exc.realization),
                       "last_finite_norm": repr(exc.last_finite_norm)}
        else:
            failure = {"status": "worker-died", "dead_process": f"{exc.process} ({exc.status})"}
        _write_manifest(out / "manifest.txt", {**base_manifest(config), **failure},
                        serialize_config(config), command, overrides)
        raise


def _simulate(config):
    """simulate's manifest and tables: realization 0 of the ensemble, stepped
    as a batch of one column; the run's only task, so its noise may be drawn
    on a second CPU."""
    t0 = time.perf_counter()
    psi0 = resolve_initial(config.grid, config.initial)
    prop = make_propagator(config.grid, config.tau, config.params.alpha)
    with batch_forcing(config, range(1), alone=True) as forcing:
        steps, states = integrate(psi0[:, None], prop, config.params, forcing,
                                  config.n_steps, config.record_stride)
    manifest = ensemble_manifest(config, t0, noise_lines([forcing.timers()]), 1)
    return manifest, [(_write_trajectory, "trajectory.csv", steps, config.tau, states[:, :, 0])]


def _cmd_experiment(args, command: str) -> int:
    if getattr(args, "chunk_size", None) is not None and args.chunk_size < 1:  # simulate has none
        raise ConfigError(f"--chunk-size must be >= 1, got {args.chunk_size}")
    config = _load_config(args, command)
    out = _out_dir(args)
    overrides = args.set or []
    with _partial_manifest(out, config, command, overrides):
        if command == "simulate":
            manifest, tables = _simulate(config)
        else:
            if command == "charge":
                record = charge_experiment(config, chunk_size=args.chunk_size)
            elif command == "ergodic":
                record = ergodic_experiment(config, chunk_size=args.chunk_size)
            else:  # error or order
                record = ms_error(config, chunk_size=args.chunk_size)
            manifest = record.manifest
            tables = [(_write_csv, f"{command}.csv", record.columns, record.rows)]
        if command == "order":
            fit = order_fit([(tau, err) for tau, _, err, _ in record.rows])
            tables.append((_write_csv, "fit.csv", ("slope", "intercept", "rms_residual"),
                           [(fit.slope, fit.intercept, fit.residual)]))
            manifest["fitted_slope"] = repr(fit.slope)
            print(f"fitted slope: {fit.slope:.4f}")
        _emit(out, manifest, serialize_config(config), command, overrides, *tables)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    try:
        seed = NoiseSpec.check_seed(0 if args.seed is None else args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _out_dir(args)
    rows = run_diagnostic_suite(seed=seed)
    manifest = {**PROVENANCE, "seed": str(seed)}
    _emit(out, manifest, None, "diagnose", [],
          (_write_csv, "diagnostics.csv",
           ("check", "step", "node", "residual", "tolerance", "passed"),
           [(r.check, r.step, r.node, r.residual, r.tolerance, r.passed) for r in rows]))
    failures = [r for r in rows if not r.passed]
    by_check = {}
    for r in rows:
        ok, total = by_check.get(r.check, (0, 0))
        by_check[r.check] = (ok + (1 if r.passed else 0), total + 1)
    for check in sorted(by_check):
        ok, total = by_check[check]
        print(f"{'PASS' if ok == total else 'FAIL'} {check}: {ok}/{total}")
    print(f"wrote {out}")
    return EXIT_DIAGNOSE if failures else EXIT_OK


def _cmd_presets() -> int:
    for name in sorted(PRESETS):
        print(f"{name:11s} {PRESETS[name][0]}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsnls",
        description="Splitting scheme for the damped stochastic cubic Schrödinger "
                    "equation: simulations, structure diagnostics, Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="config file")
        p.add_argument("--preset", metavar="NAME", help="named preset (see `dsnls presets`)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default="dsnls-out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, default=None, metavar="N", help="base seed override")

    add_common(sub.add_parser("simulate", help="run a 'simulate' experiment"))
    for name in ("charge", "ergodic", "error", "order"):
        ensemble = sub.add_parser(name, help=f"run a '{name}' experiment")
        add_common(ensemble)
        ensemble.add_argument("--chunk-size", type=int, default=None, metavar="M",
                              help="realizations per chunk (default: at most 256, split "
                                   "evenly); chunks run on the usable CPUs (`taskset -c 0` "
                                   "gives one), and neither changes a byte of the results")
    diag = sub.add_parser("diagnose", help="machine-precision identity suite")
    diag.add_argument("--out", default="dsnls-out", metavar="DIR")
    diag.add_argument("--seed", type=int, default=None, metavar="N")
    sub.add_parser("presets", help="list available presets")
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to documented exit codes."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return _cmd_presets()
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        return _cmd_experiment(args, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WorkerDied as exc:
        print(f"worker died: {exc}", file=sys.stderr)
        return EXIT_WORKER


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
