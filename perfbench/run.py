"""End-to-end and per-layer benchmark of the dsnls command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`.  One operation is one `dsnls` command in a fresh Python process
(perfbench/child.py calls `dsnls.cli.run`), timed from spawn to exit.  Whole
rounds of operations run for `--seconds`: a round starts only if, at the
median round length so far, it ends in time, and the first always runs.
Every operation's outputs are checked (perfbench/checks.py) and then deleted.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed`, and the
medians of the metrics over the operations of this run — the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

A traced round is one untraced and one traced operation, so that the run can
report its own tracing overhead: the traced median wall time minus the
untraced one.  The benchmark starts no threads, and it leaves the BLAS thread
settings as it finds them, so `cpu_s` includes the BLAS worker threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

import checks

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"
RUN_DEADLINE_S = 165.0      # a child still running then is killed
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    argv: tuple
    realizations: int
    steps: int          # fine reference steps for the order ladder
    check: Callable


WORKLOADS = {
    "charge-fig1b": Workload(
        ("charge", "--preset", "fig1b"), 500, checks.CHARGE_STEPS, checks.check_charge),
    "order-fig4-stoch": Workload(
        ("order", "--preset", "fig4-stoch"), 100, 4096, checks.check_order),
    "simulate-j1000": Workload(
        ("simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "J=1000",
         "--set", "tau=2^-10", "--set", "T=1", "--set", "record_stride=8"),
        1, checks.SIM_STEPS, checks.check_simulate),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "realization_steps_per_s": "1/s"}
PER_LAYER = {
    "noise.draw_s": "s", "noise.normals": "count", "noise.normals_per_s": "1/s",
    "noise.project_s": "s", "integrator.factor_s": "s", "integrator.steps": "count",
    "integrator.step_s": "s", "integrator.solve_s": "s", "integrator.apply_plus_s": "s",
    "integrator.rotate_s": "s", "integrator.other_s": "s", "diagnostics.observe_s": "s",
    "harness.self_s": "s", "harness.experiment_s": "s", "config.parse_s": "s",
    "cli.output_s": "s", "cli.output_bytes": "bytes", "trace.overhead_s": "s",
}


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def print_provenance(root: Path, workload: str, seed) -> None:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"workload: {workload}: dsnls {' '.join(WORKLOADS[workload].argv)}")
    print("seed: " + (f"{checks.PRESET_SEED} (preset default)" if seed is None
                      else f"{seed} (passed to dsnls as --seed {seed})"))
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, BLAS {blas.get('name')} {blas.get('version')}")
    print(f"nproc: {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})")
    print("BLAS threads: " + ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV))
    print(f"commit: {_git_commit(root)}")


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(root: Path, workload: Workload, seed, trace: bool, out: Path, env,
           deadline: float) -> dict:
    """Spawn one dsnls command, wait for it, check its outputs; return its record."""
    report = out.with_suffix(".json")
    dsnls_argv = [*workload.argv, "--out", str(out)]
    if seed is not None:
        dsnls_argv += ["--seed", str(seed)]
    with open(out.with_suffix(".log"), "wb") as log:
        spawned = time.monotonic()
        argv = [sys.executable, str(HERE / "child.py"), repr(spawned), str(report),
                "1" if trace else "0", "--", *dsnls_argv]
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        # A blocking wait: polling would wake this process while the BLAS
        # threads of the child spin, and slow them.  The timer kills a hung child.
        signal.signal(signal.SIGALRM, lambda *_: _kill(proc.pid))
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - spawned))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"exit": proc.returncode, "trace": trace, "failures": []}
    if proc.returncode != 0 or not report.is_file():
        log_tail = out.with_suffix(".log").read_text(errors="replace")[-2000:]
        print(f"dsnls exited {proc.returncode}:\n{log_tail}", file=sys.stderr)
        return rec
    child = json.loads(report.read_text())
    if not Path(child["dsnls_file"]).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"dsnls was imported from {child['dsnls_file']}, not {root / 'src'}")
    if "setup_s" not in child:
        print("dsnls exited 0 without returning from its experiment call", file=sys.stderr)
        return rec
    rec["wall_s"] = ended - spawned
    rec["setup_s"] = child["setup_s"]
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    rec["peak_rss_mb"] = child["peak_rss_mb"]
    rec["realization_steps_per_s"] = (workload.realizations * workload.steps
                                      / child["experiment_s"])
    if trace:
        layers = dict(child["layers"])
        layers["noise.normals_per_s"] = (layers["noise.normals"] / layers["noise.draw_s"]
                                         if layers["noise.draw_s"] > 0 else 0.0)
        layers["cli.output_s"] = child["output_s"]
        layers["cli.output_bytes"] = child["output_bytes"]
        rec["layers"] = layers
        rec["inside_layers_s"] = child["inside_layers_s"]
    rec["failures"] = workload.check(out, checks.PRESET_SEED if seed is None else seed)
    return rec


def _describe(i: int, rec: dict) -> str:
    kind = "traced" if rec["trace"] else "untraced"
    if "wall_s" not in rec:
        return f"op {i} ({kind}): FAILED, exit {rec['exit']}"
    verdict = "; ".join(f"note, {f.message}" if f.kind == "statistical"
                        else f"{f.kind} check FAILED: {f.message}" for f in rec["failures"])
    return (f"op {i} ({kind}): wall {rec['wall_s']:.3f} s, setup {rec['setup_s']:.3f} s, "
            f"cpu {rec['cpu_s']:.2f} s, peak {rec['peak_rss_mb']:.0f} MB, "
            f"{rec['realization_steps_per_s']:.4g} realization-steps/s; "
            + (verdict or "checks pass"))


def _summary(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{name}: median {med:.6g} {unit} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{name}: median {med:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g} (n={len(values)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed passed to dsnls (default: the preset's "
                             f"{checks.PRESET_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="run whole rounds that end within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    launched = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "dsnls" / "cli.py").is_file():
        print(f"error: {root} holds no dsnls source tree (src/dsnls/cli.py); run the "
              f"benchmark from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print_provenance(root, args.workload, args.seed)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out_root = root / OUT_DIR
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir()
    try:
        # Untimed: compiles the package's bytecode and warms the file cache.
        subprocess.run([sys.executable, "-c", "import dsnls.cli"], cwd=root, env=env,
                       check=True)
        records = []
        rounds = []         # duration of each whole round, checks included
        start = time.monotonic()
        # A round starts only if, at the median round length so far, it ends
        # within --seconds; the first round always runs.
        while not rounds or (time.monotonic() - start + statistics.median(rounds)
                             <= args.seconds):
            began = time.monotonic()
            for trace in ((False, True) if args.trace else (False,)):
                out = out_root / f"op{len(records) + 1}"
                rec = run_op(root, workload, args.seed, trace, out, env,
                             launched + RUN_DEADLINE_S)
                shutil.rmtree(out, ignore_errors=True)
                records.append(rec)
                print(_describe(len(records), rec))
            rounds.append(time.monotonic() - began)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    ran = [r for r in records if "wall_s" in r]
    failed = sum(1 for r in records if "wall_s" not in r
                 or any(f.kind != "statistical" for f in r["failures"]))
    correct = not any(f.kind == "value" for r in ran for f in r["failures"])
    noted = sum(1 for r in ran if any(f.kind == "statistical" for f in r["failures"]))
    if noted:
        print(f"{noted} of {len(ran)} operations have a statistical note; they are not "
              f"counted as failed")
    plain = [r for r in ran if not r["trace"]]
    if not plain or (args.trace and len(plain) == len(ran)):
        print("error: no operation ran to completion", file=sys.stderr)
        return 1
    metrics = {}
    if args.trace:
        traced = [r for r in ran if r["trace"]]
        walls = {k: statistics.median(r["wall_s"] for r in rs)
                 for k, rs in (("untraced", plain), ("traced", traced))}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = walls["traced"] - walls["untraced"]
            else:
                values = [r["layers"][name] for r in traced]
                print(_summary(name, values, unit))
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        for r in traced:
            layers = r["layers"]
            print(f"attribution: experiment call {layers['harness.experiment_s']:.4f} s = "
                  f"layers inside it {r['inside_layers_s']:.4f} s + harness.self_s "
                  f"{layers['harness.self_s']:.4f} s")
        print(f"tracing overhead {metrics['trace.overhead_s']['value']:.4f} s (median wall "
              f"traced {walls['traced']:.4f} s, untraced {walls['untraced']:.4f} s)")
    else:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in plain]
            print(_summary(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
