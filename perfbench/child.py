"""Run one dsnls command in this process and report how its time was spent.

    python3 perfbench/child.py SPAWNED REPORT TRACE -- <dsnls arguments>

SPAWNED is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree),
REPORT the JSON file to write, TRACE 0 or 1.  The command runs through
`dsnls.cli.run`; the exit code is its exit code.

Without tracing only the experiment call is wrapped, to stamp its entry and
return.  With tracing, the public functions of each module are wrapped where
their callers look them up, and the time of every call is charged to its
layer as self time: a span's duration minus the spans opened inside it.  The
noise block generators are timed per resumption, not at creation.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Self time and call counts per layer, from spans around wrapped calls."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.inside_experiment_s = 0.0
        self._open = []            # [layer, start, time covered by inner spans]

    def _enter(self, layer):
        self._open.append([layer, time.perf_counter(), 0.0])

    def _leave(self):
        layer, start, covered = self._open.pop()
        dt = time.perf_counter() - start
        self.self_s[layer] += dt - covered
        self.total_s[layer] += dt
        if self._open:
            self._open[-1][2] += dt
            if layer != "experiment" and any(s[0] == "experiment" for s in self._open):
                self.inside_experiment_s += dt - covered

    def call(self, layer, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            self.counts[layer] += 1 if count is None else count(result)
            return result
        return traced

    def resumptions(self, layer, genfn, count=None):
        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            blocks = genfn(*args, **kwargs)
            while True:
                self._enter(layer)
                try:
                    item = next(blocks)
                except StopIteration:
                    return
                finally:
                    self._leave()
                if count is not None:
                    self.counts[layer] += count(item)
                yield item
        return traced


def _normals(increments):
    return 2 * increments.size


def install_tracer(tracer: Tracer, cli) -> None:
    """Wrap each layer's public functions in the modules that call them."""
    from dsnls import harness, integrator, noise
    from dsnls.integrator import LinearPropagator

    noise.increment_blocks = tracer.resumptions("noise.draw", noise.increment_blocks, _normals)
    cli.generate_path = tracer.call("noise.draw", cli.generate_path,
                                    lambda path: _normals(path.increments))
    harness.forcing_blocks = tracer.resumptions("noise.project", harness.forcing_blocks)
    for module in (harness, integrator):
        module.forcing_weights = tracer.call("noise.project", module.forcing_weights)
    integrator.project_forcing = tracer.call("noise.project", integrator.project_forcing)

    for module in (harness, cli):
        module.make_propagator = tracer.call("integrator.factor", module.make_propagator)
    for module in (harness, integrator):
        module.step = tracer.call("integrator.step", module.step)
    LinearPropagator.solve_minus = tracer.call("integrator.solve", LinearPropagator.solve_minus)
    LinearPropagator.apply_plus = tracer.call("integrator.apply_plus",
                                              LinearPropagator.apply_plus)
    harness.nonlinear_step = tracer.call("integrator.other", harness.nonlinear_step)

    harness.discrete_charge = tracer.call("diagnostics.observe", harness.discrete_charge)
    harness.charge_limit_discrete = tracer.call("diagnostics.observe",
                                                harness.charge_limit_discrete)

    cli.parse_config = tracer.call("config.parse", cli.parse_config)
    cli.preset_config = tracer.call("config.parse", cli.preset_config)


def _layer_metrics(tracer: Tracer) -> dict:
    s, n = tracer.self_s, tracer.counts
    step_s = tracer.total_s["integrator.step"]
    return {
        "noise.draw_s": s["noise.draw"],
        "noise.normals": n["noise.draw"],
        "noise.project_s": s["noise.project"],
        "integrator.factor_s": s["integrator.factor"],
        "integrator.steps": n["integrator.step"],
        "integrator.step_s": step_s,
        "integrator.solve_s": s["integrator.solve"],
        "integrator.apply_plus_s": s["integrator.apply_plus"],
        "integrator.rotate_s": step_s - s["integrator.solve"] - s["integrator.apply_plus"],
        "integrator.other_s": s["integrator.other"],
        "diagnostics.observe_s": s["diagnostics.observe"],
        "harness.self_s": s["experiment"],
        "harness.experiment_s": tracer.total_s["experiment"],
        "config.parse_s": s["config.parse"],
    }


def _peak_rss_mb() -> float:
    """VmHWM, the peak resident set of this process's own address space.

    getrusage's ru_maxrss would also count the parent's pages this process
    held between fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    spawned, report, trace = float(argv[0]), Path(argv[1]), argv[2] == "1"
    dsnls_argv = argv[argv.index("--") + 1:]

    from dsnls import cli

    stamps = {}
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracer(tracer, cli)

    def stamped(fn):
        @functools.wraps(fn)
        def experiment(*args, **kwargs):
            stamps["entry"] = time.monotonic()
            result = fn(*args, **kwargs)
            stamps["return"] = time.monotonic()
            return result
        return tracer.call("experiment", experiment) if tracer is not None else experiment

    for name in ("charge_experiment", "ms_error", "integrate"):
        setattr(cli, name, stamped(getattr(cli, name)))

    code = cli.run(dsnls_argv)
    done = time.monotonic()
    out = Path(dsnls_argv[dsnls_argv.index("--out") + 1])
    result = {"dsnls_file": cli.__file__}
    if "return" in stamps:
        result.update(
            setup_s=stamps["entry"] - spawned,
            experiment_s=stamps["return"] - stamps["entry"],
            output_s=done - stamps["return"],
            output_bytes=sum(p.stat().st_size for p in out.iterdir()),
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer)
        result["inside_layers_s"] = tracer.inside_experiment_s
    report.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
