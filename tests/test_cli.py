import csv
import hashlib
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy
import pytest

import dsnls
from dsnls.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_WORKER,
    _write_trajectory,
    run,
)
from dsnls.config import _KEYS, ConfigError, parse_config, serialize_config
from dsnls.presets import PRESETS, preset_config

FIG1B_TEXT = """\
# stochastic charge plateau
[model]
alpha = 0.5
lambda = 1
epsilon = 1.0

[grid]
J = 9

[noise]
P = 100
spectrum = power-law(6)
seed = 11

[time]
tau = 2^-6
T = 35

[experiment]
kind = charge
M = 500
record_stride = 16
initial = sine
"""


def _library(deps: dict) -> str:
    return f"{deps['name']} {deps['version']}"


#: What every manifest names of the toolchain its bytes are reproducible on.
PROVENANCE_LINES = (
    f"python = {platform.python_version()}",
    f"numpy = {numpy.__version__}",
    f"numpy_blas = {_library(numpy.show_config(mode='dicts')['Build Dependencies']['blas'])}",
    f"numpy_lapack = {_library(numpy.show_config(mode='dicts')['Build Dependencies']['lapack'])}",
    # what this process's import of dsnls found and set; test_blas_thread_policy
    # checks the line's wording in fresh interpreters
    f"blas_threads = {dsnls._BLAS_THREADS}",
)

#: The config's keys, which a manifest states only in its config echo.
CONFIG_KEYS = {key for _, key, _, _ in _KEYS}

TINY_CHARGE = """\
[model]
alpha = 0.5
lambda = 1
epsilon = 1.0

[grid]
J = 4

[noise]
P = 3
spectrum = power-law(6)
seed = 5

[time]
tau = 2^-5
T = 0.5

[experiment]
kind = charge
M = 3
record_stride = 4
"""


class TestParse:
    def test_fig1b_document(self):
        cfg = parse_config(FIG1B_TEXT)
        assert cfg.params.alpha == 0.5
        assert cfg.params.lam == 1
        assert cfg.params.epsilon == 1.0
        assert cfg.grid.J == 9 and cfg.grid.h == pytest.approx(0.1)
        assert cfg.tau == 2.0 ** -6
        assert cfg.T == 35.0
        assert cfg.noise.P == 100
        assert cfg.noise.eta[1] == pytest.approx(2.0 ** -6)
        assert cfg.M == 500
        assert cfg == preset_config("fig1b")

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        msg = str(err.value)
        for frag in ("[model] alpha", "[grid] J", "[time] tau", "[experiment] kind"):
            assert frag in msg

    def test_unknown_key_reports_line(self):
        bad = FIG1B_TEXT.replace("initial = sine", "initial = sine\nbanana = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "banana" in str(err.value)
        assert "line" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[fruit]\napples = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(FIG1B_TEXT + "\n[model]\nalpha = 0.7\n")
        assert "duplicate" in str(err.value)

    def test_type_error_reports_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(FIG1B_TEXT.replace("alpha = 0.5", "alpha = fast"))
        assert "alpha" in str(err.value)

    def test_override_epsilon(self):
        cfg = parse_config(FIG1B_TEXT, overrides=["epsilon=0"])
        assert cfg.params.epsilon == 0.0

    def test_override_dotted_and_ambiguity(self):
        cfg = parse_config(FIG1B_TEXT, overrides=["noise.seed=99"])
        assert cfg.noise.seed == 99
        with pytest.raises(ConfigError):
            parse_config(FIG1B_TEXT, overrides=["bogus=1"])

    def test_invariant_violations_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(FIG1B_TEXT, overrides=["T=35.3"])
        with pytest.raises(ConfigError):
            parse_config(FIG1B_TEXT, overrides=["lambda=2"])


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_round_trip(self, name):
        cfg = preset_config(name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_preserves_spectrum_descriptor(self):
        cfg = preset_config("fig3")
        text = serialize_config(cfg)
        assert "spectrum = power-law(6)" in text
        assert parse_config(text).spectrum_desc == "power-law(6)"


class TestPresetRegistry:
    def test_names(self):
        assert sorted(PRESETS) == ["fig1a", "fig1b", "fig2", "fig3", "fig4-det", "fig4-stoch"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig9")

    def test_seed_override(self):
        assert preset_config("fig1a", ["noise.seed=123"]).noise.seed == 123

    #: SHA-256 of each preset's config echo, so that no preset value moves
    #: unnoticed
    ECHO_SHA256 = {
        "fig1a": "62d924538cb5346f08ceb898a38e675a1592aff3c6c0ff8dbdf96b3b63ee7d06",
        "fig1b": "4d33235a707e45f0f8ad576c5e87c20d49ead699ec95d50877c4a4e03076aa55",
        "fig2": "a50aded5bf3557c5c000fae9d416d7bc36491fda8ee1f37212d7d043d73af4e8",
        "fig3": "10ba6e65c07a6f6e5259545402622040afc74c42c4abfbba333e80b13d8548e1",
        "fig4-det": "6455aad4457f021be2f37ebd1585ef7cac3bef2267673112e866e36e374ca8af",
        "fig4-stoch": "192f116318b0f713fda5d4430a14f2d4c4f068273c14cfd6802f09940e456f6e",
    }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_echo_is_pinned(self, name):
        echo = serialize_config(preset_config(name))
        assert hashlib.sha256(echo.encode()).hexdigest() == self.ECHO_SHA256[name], echo


class TestCliRuns:
    def test_presets_subcommand(self, capsys):
        assert run(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("fig1a", "fig1b", "fig2", "fig3", "fig4-det", "fig4-stoch"):
            assert name in out

    def test_charge_run_and_byte_identical_rerun(self, tmp_path):
        cfg = tmp_path / "charge.cfg"
        cfg.write_text(TINY_CHARGE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["charge", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert run(["charge", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "charge.csv").read_bytes() == (out2 / "charge.csv").read_bytes()
        manifest = (out1 / "manifest.txt").read_text()
        for key in ("alpha", "epsilon", "tau", "seed", "generator", "schema"):
            assert key in manifest
        for line in PROVENANCE_LINES:
            assert f"\n{line}\n" in manifest, line

    def test_fig1a_equal_realizations_report_their_value(self, tmp_path):
        # ε = 0 makes every realization the same, so M = 4 reports the one
        # realization's charge with standard error 0, byte for byte
        tables = []
        for m in (1, 4):
            out = tmp_path / f"m{m}"
            assert run(["charge", "--preset", "fig1a", "--set", f"M={m}",
                        "--out", str(out)]) == EXIT_OK
            tables.append((out / "charge.csv").read_bytes())
        assert tables[0] == tables[1]
        assert all(row.split(b",")[3] == b"0.0" for row in tables[1].splitlines()[1:])

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "charge.cfg"
        cfg.write_text(TINY_CHARGE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["charge", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert run(["charge", "--config", str(cfg), "--out", str(out2), "--seed", "77"]) == EXIT_OK
        assert (out1 / "charge.csv").read_bytes() != (out2 / "charge.csv").read_bytes()
        assert "seed = 77" in (out2 / "manifest.txt").read_text()

    def test_override_echoed_in_manifest(self, tmp_path):
        cfg = tmp_path / "charge.cfg"
        cfg.write_text(TINY_CHARGE)
        out = tmp_path / "o"
        assert run(["charge", "--config", str(cfg), "--out", str(out),
                    "--set", "epsilon=0"]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert "overrides = epsilon=0" in manifest
        assert "epsilon = 0.0" in manifest

    def test_kind_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "charge.cfg"
        cfg.write_text(TINY_CHARGE)
        for command in ("ergodic", "simulate"):
            capsys.readouterr()
            assert run([command, "--config", str(cfg),
                        "--out", str(tmp_path / command)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: config kind 'charge' does not match subcommand '{command}' "
                f"(use --set kind={command} to retarget)\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "initial=explicit: 1"],
        ["charge", "--preset", "fig1b", "--set", "initial=explicit: 1, 2"],
        ["charge", "--preset", "fig1b", "--set", "initial=explicit: 1, 2", "--chunk-size", "1"],
        ["ergodic", "--preset", "fig2", "--set", "initials=initial(1), nine"],
        ["ergodic", "--preset", "fig2", "--set", "initials=initial(1), nine", "--chunk-size", "1"],
    ], ids=["simulate", "charge", "charge-chunk-size-1", "ergodic", "ergodic-chunk-size-1"])
    def test_bad_initial_profile_is_config_error(self, argv, tmp_path, capsys):
        # the profiles are checked on the grid as the config is built, before
        # any output or chunk worker exists, however the run is chunked
        out = tmp_path / "out"
        assert run([*argv, "--set", "M=2", "--set", "T=2^-5", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nbanana = 1\n")
        assert run(["charge", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_unparsable_value_names_its_source(self, tmp_path, capsys):
        # an override is named as given; a file key keeps its line number
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CHARGE.replace("tau = 2^-5", "tau = abc"))
        for argv, where in (
            (["--preset", "fig1b", "--set", "tau=abc"], "override 'tau=abc'"),
            (["--config", str(cfg)], "line 15"),
        ):
            capsys.readouterr()
            out = tmp_path / "out"
            assert run(["charge", *argv, "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: {where}: key 'tau': cannot parse number 'abc'\n")
            assert not out.exists()

    def test_missing_config_flag(self, tmp_path):
        assert run(["charge", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_exit_code(self, tmp_path):
        cfg = tmp_path / "boom.cfg"
        cfg.write_text(TINY_CHARGE.replace(
            "record_stride = 4",
            "record_stride = 4\ninitial = explicit: 1e200+0j, 0, 0, 0"))
        for command in ("charge", "simulate"):
            argv = [command, "--config", str(cfg), "--set", f"kind={command}"]
            assert run([*argv, "--out", str(tmp_path / command)]) == EXIT_BLOWUP
            _assert_blowup_manifest(tmp_path / command, command, step=1, realization=0)

    def test_simulate_writes_trajectory(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(TINY_CHARGE.replace("kind = charge", "kind = simulate"))
        out = tmp_path / "sim"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,node,re,im"
        # 16 steps at stride 4 -> snapshots at 0,4,8,12,16; J=4 nodes each
        assert len(lines) == 1 + 5 * 4
        decimal = re.compile(r"-?\d+(\.\d+)?(e[-+]\d+)?")
        for line in lines[1:]:
            for cell in line.split(",")[3:]:
                assert decimal.fullmatch(cell), cell

    def test_order_run_writes_fit(self, tmp_path):
        cfg = tmp_path / "order.cfg"
        cfg.write_text("""\
[model]
alpha = 0.5
lambda = 1
epsilon = 0.0

[grid]
J = 4

[noise]
P = 3
spectrum = power-law(6)
seed = 5

[time]
tau = 2^-9
T = 0.25

[experiment]
kind = order
M = 1
tau_ladder = 2^-7, 2^-6, 2^-5
""")
        out = tmp_path / "ord"
        assert run(["order", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "order.csv").exists()
        fit_lines = (out / "fit.csv").read_text().strip().splitlines()
        assert fit_lines[0] == "slope,intercept,rms_residual"
        manifest = (out / "manifest.txt").read_text()
        assert "fitted_slope" in manifest
        assert "processing = strang" in manifest

    def test_error_run_table(self, tmp_path):
        cfg = tmp_path / "err.cfg"
        cfg.write_text("""\
[model]
alpha = 0.5
lambda = 1
epsilon = 1.0

[grid]
J = 3

[noise]
P = 3
spectrum = power-law(6)
seed = 5

[time]
tau = 2^-8
T = 0.5

[experiment]
kind = error
M = 2
tau_ladder = 2^-6
horizons = 0.25, 0.5
""")
        out = tmp_path / "err"
        assert run(["error", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "error.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,T,error,error_se"
        assert len(lines) == 3

    def test_diagnose(self, tmp_path):
        out = tmp_path / "diag"
        assert run(["diagnose", "--out", str(out), "--seed", "3"]) == EXIT_OK
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert lines[0] == "check,step,node,residual,tolerance,passed"
        assert all(line.endswith("True") for line in lines[1:])
        manifest = (out / "manifest.txt").read_text()
        for line in PROVENANCE_LINES:
            assert f"\n{line}\n" in manifest, line

    def test_diagnose_prints_pass_lines(self, capsys, tmp_path):
        run(["diagnose", "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert "PASS energy-identity" in out
        assert "PASS conformal-multisymplectic" in out

    def test_diagnose_rejects_set(self, capsys, tmp_path):
        # diagnose reads no config, so an override would be recorded, not applied
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            run(["diagnose", "--set", "banana=1", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "--set" in capsys.readouterr().err
        assert not out.exists()


class TestChunkInvariance:
    # J = 9 everywhere: numpy sums a lone column of 8 or more nodes pairwise,
    # so chunk size 1 is where an unordered node sum would show
    CASES = {
        "charge": ["--preset", "fig1b", "--set", "T=0.5"],
        "ergodic": ["--preset", "fig2", "--set", "T=0.5", "--set", "record_stride=8"],
        "error": ["--preset", "fig3", "--set", "J=9", "--set", "T=0.5",
                  "--set", "horizons=0.25, 0.5"],
        "order": ["--preset", "fig4-stoch", "--set", "T=2^-5"],
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_csv_bytes_independent_of_chunk_size(self, command, tmp_path):
        m = 5
        argv = [command, *self.CASES[command], "--set", f"M={m}"]
        assert run([*argv, "--out", str(tmp_path / "default")]) == EXIT_OK
        expected = {f.name: f.read_bytes() for f in (tmp_path / "default").glob("*.csv")}
        assert f"{command}.csv" in expected
        for chunk in (1, 3, m - 1):
            out = tmp_path / f"chunk{chunk}"
            assert run([*argv, "--chunk-size", str(chunk), "--out", str(out)]) == EXIT_OK
            assert {f.name: f.read_bytes() for f in out.glob("*.csv")} == expected, chunk

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_csv_bytes_independent_of_cpu_count(self, command, tmp_path, pin_cpus):
        m = 5
        runs = 5 if command == "ergodic" else 1     # one run of M per initial profile
        argv = [command, *self.CASES[command], "--set", f"M={m}"]
        expected = None
        for cpus in (1, 2, 3):
            pin_cpus(cpus)
            for chunk in (None, 1, 3):
                out = tmp_path / f"cpus{cpus}-chunk{chunk}"
                flags = [] if chunk is None else ["--chunk-size", str(chunk)]
                assert run([*argv, *flags, "--out", str(out)]) == EXIT_OK
                got = {f.name: f.read_bytes() for f in out.glob("*.csv")}
                expected = expected or got
                assert got == expected, (cpus, chunk)
                chunks = runs * -(-m // (chunk or m))
                workers = min(cpus, chunks)
                manifest = (out / "manifest.txt").read_text()
                for line in (f"cpus = {cpus}", f"chunks = {chunks}", f"workers = {workers}"):
                    assert f"\n{line}\n" in manifest, (cpus, chunk, line)

    def test_two_default_chunks_match_one(self, tmp_path, pin_cpus):
        # M = 300 splits into two default chunks of 150 and runs on two workers
        pin_cpus(2)
        argv = ["charge", "--preset", "fig1b", "--set", "M=300", "--set", "T=2^-3",
                "--set", "record_stride=2"]
        outputs = []
        for flags, chunks in (([], 2), (["--chunk-size", "300"], 1)):
            out = tmp_path / f"chunks{chunks}"
            assert run([*argv, *flags, "--out", str(out)]) == EXIT_OK
            manifest = (out / "manifest.txt").read_text()
            assert f"\nchunks = {chunks}\nworkers = {chunks}\n" in manifest
            outputs.append((out / "charge.csv").read_bytes())
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [*sorted(TestChunkInvariance.CASES), "simulate"])
def test_manifest_records_write_seconds(command, tmp_path):
    if command == "simulate":
        argv = ["simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "T=2^-5"]
    else:
        argv = [command, *TestChunkInvariance.CASES[command], "--set", "M=2"]
    out = tmp_path / command
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    text = (out / "manifest.txt").read_text()
    assert re.search(r"^write_s = \d+\.\d{3}$", text, re.MULTILINE), text
    # every run records its throughput: realization-steps over the wall time,
    # which the manifest rounds to 1 ms; every ensemble also records how its
    # chunks ran
    manifest = dict(line.split(" = ", 1) for line in text.split("\n\n")[0].splitlines())
    # the config echo is the one record of the config: it reads back to the
    # config the command ran, and no line of the head repeats one of its keys
    config = parse_config(text.split("# config echo\n")[1].replace("| ", ""))
    preset = argv[argv.index("--preset") + 1]
    overrides = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--set"]
    assert config == preset_config(preset, overrides)
    assert not manifest.keys() & CONFIG_KEYS, manifest.keys() & CONFIG_KEYS
    keys = ["realization_steps_per_s"]
    if command != "simulate":
        keys += ["cpus", "chunks", "workers"]
    for key in keys:
        assert re.fullmatch(r"[1-9]\d*", manifest[key]), (key, manifest.get(key))
    realizations = 1 if command == "simulate" else 2 * len(config.initials or [None])
    realization_steps = realizations * config.n_steps
    wall = float(manifest["wall_time_s"])
    rate = int(manifest["realization_steps_per_s"])
    assert realization_steps / (wall + 0.0005) - 1 <= rate
    assert rate <= realization_steps / max(wall - 0.0005, 1e-9) + 1
    # and its noise work, summed over chunks: 2 min(J, P) normals per
    # realization-step, J = 9 < P = 100 here, and seconds timed per block
    assert manifest["noise"] in ("in process", "producer process")
    for key in ("noise_s", "noise_wait_s"):
        assert re.fullmatch(r"\d+\.\d{3}", manifest[key]), (key, manifest.get(key))
    assert int(manifest["normals"]) == 2 * 9 * realization_steps


@pytest.mark.parametrize("argv, writes, error, code", [
    (["simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "T=2^-2",
      "--set", "record_stride=4"], "_snapshot_lines", OSError(28, "No space left on device"),
     EXIT_IO),
    (["charge", "--preset", "fig1b", "--set", "M=2", "--set", "T=2^-2"], "_fmt",
     RuntimeError("cannot format"), None),
], ids=["trajectory.csv", "charge.csv"])
def test_failed_table_write_leaves_no_file(argv, writes, error, code, tmp_path, pin_cpus,
                                           monkeypatch):
    # the third call formatting the table raises, whatever it raises: the
    # run ends without its table; on one CPU trajectory.csv has one writer
    import dsnls.cli as cli

    pin_cpus(1)
    calls = []

    def fail_third(*args, _fn=getattr(cli, writes)):
        calls.append(1)
        if len(calls) == 3:
            raise error
        return _fn(*args)
    monkeypatch.setattr(cli, writes, fail_third)
    out = tmp_path / argv[0]
    if code is None:
        with pytest.raises(type(error)):
            run([*argv, "--out", str(out)])
    else:
        assert run([*argv, "--out", str(out)]) == code
    assert len(calls) == 3
    assert list(out.iterdir()) == []


def test_chunk_size_is_an_ensemble_option(tmp_path, capsys):
    # simulate runs one realization, so it has no chunks to size
    argv = ["--preset", "fig1a", "--set", "T=2^-5", "--chunk-size", "3"]
    with pytest.raises(SystemExit) as exc:
        run(["simulate", *argv, "--set", "kind=simulate", "--out", str(tmp_path / "sim")])
    assert exc.value.code == EXIT_CONFIG
    assert "--chunk-size" in capsys.readouterr().err
    assert run(["charge", *argv, "--set", "kind=charge", "--set", "M=4",
                "--out", str(tmp_path / "charge")]) == EXIT_OK


class TestTrajectoryWriter:
    @staticmethod
    def _reference(path, steps, tau, states):
        # the rule trajectory.csv was first written by: csv.writer rows of
        # str(int) and repr(float(.)) cells, the time being step * tau
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("step", "t", "node", "re", "im"))
            for step, state in zip(steps, states):
                for j, z in enumerate(state, start=1):
                    writer.writerow([str(int(step)), repr(float(int(step) * tau)), str(j),
                                     repr(float(z.real)), repr(float(z.imag))])

    def test_bytes_equal_csv_writer_on_edge_cells(self, tmp_path, pin_cpus):
        # on two CPUs, so the forked writer formats the last snapshot
        pin_cpus(2)
        cells = [-0.0, 5e-324, 1e-05, 1e+16, 0.1 + 0.2, -1.5, 0.0, 123456.789]
        states = numpy.array([complex(re, im) for re, im in zip(cells, cells[::-1])]
                             + [complex(-0.0, -0.0)]).reshape(3, 3)
        assert str(states[0, 0].real) == "-0.0"
        steps = numpy.array([0, 3, 10 ** 17])  # times 0.0, 0.30000000000000004, 1e+16
        assert _write_trajectory(tmp_path / "new.csv", steps, 0.1, states) == {
            "trajectory_writers": "2"}
        self._reference(tmp_path / "ref.csv", steps, 0.1, states)
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        for cell in (b",-0.0,", b",5e-324", b",1e-05,", b",1e+16", b"3,0.30000000000000004,",
                     b"100000000000000000,1e+16,3,", b"\r\n"):
            assert cell in data, cell

    @pytest.mark.parametrize("snapshots", [1, 2, 9, 10, 33])
    def test_bytes_independent_of_the_split(self, snapshots, tmp_path, pin_cpus):
        rng = numpy.random.default_rng(snapshots)
        states = rng.standard_normal((snapshots, 7)) + 1j * rng.standard_normal((snapshots, 7))
        steps = numpy.arange(snapshots) * 3
        self._reference(tmp_path / "ref.csv", steps, 2.0 ** -10, states)
        for cpus in (1, 2):
            pin_cpus(cpus)
            path = tmp_path / f"cpus{cpus}.csv"
            writers = _write_trajectory(path, steps, 2.0 ** -10, states)
            assert writers == {"trajectory_writers": "2" if cpus == 2 and snapshots > 1 else "1"}
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), cpus

    def test_j1000_simulate_matches_csv_writer(self, tmp_path, monkeypatch):
        import dsnls.cli as cli

        recorded = []

        def captured(*args, _fn=cli.integrate, **kwargs):
            recorded.append(_fn(*args, **kwargs))
            return recorded[-1]
        monkeypatch.setattr(cli, "integrate", captured)
        out = tmp_path / "sim"
        assert run(["simulate", "--preset", "fig1b", "--set", "kind=simulate",
                    "--set", "J=1000", "--set", "tau=2^-10", "--set", "T=2^-7",
                    "--set", "record_stride=1", "--out", str(out)]) == EXIT_OK
        ((steps, states),) = recorded
        assert states.shape == (9, 1000, 1)  # realization 0 as a batch of one column
        self._reference(tmp_path / "ref.csv", steps, 2.0 ** -10, states[:, :, 0])
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_commands_call_their_experiment_through_cli_globals(tmp_path, monkeypatch):
    # perfbench/child.py times each run by replacing these cli attributes; a
    # command that bypassed them would leave every benchmark operation unstamped
    import dsnls.cli as cli

    calls = {}
    for name in ("charge_experiment", "ms_error", "integrate"):
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    tiny = ["--set", "M=2", "--set", "T=2^-5"]
    for argv, name in (
        (["charge", "--preset", "fig1b", *tiny], "charge_experiment"),
        (["order", "--preset", "fig4-stoch", *tiny], "ms_error"),
        (["simulate", "--preset", "fig1b", "--set", "kind=simulate", *tiny], "integrate"),
    ):
        calls.clear()
        assert run([*argv, "--out", str(tmp_path / argv[0])]) == EXIT_OK
        assert calls == {name: 1}


@pytest.mark.parametrize("argv, normals, steps", [
    # noise.normals = 2 min(J, P) n_steps M, with J = 9, P = 100 and
    # n_steps = T / tau; integrator.steps counts the batch steps, the order
    # ladder's coarse steps (2^-10 .. 2^-7 against 2^-12) included
    (["simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "T=2^-2"],
     2 * 9 * 16 * 1, 16),
    (["charge", "--preset", "fig1b", "--set", "M=2", "--set", "T=2^-2"], 2 * 9 * 16 * 2, 16),
    (["order", "--preset", "fig4-stoch", "--set", "M=2", "--set", "T=2^-6"],
     2 * 9 * 64 * 2, 64 + 16 + 8 + 4 + 2),
])
def test_perfbench_tracer_runs_on_this_code(argv, normals, steps, tmp_path):
    # perfbench/child.py --trace 1 wraps module attributes by name; one it
    # cannot find, or one the commands no longer call, breaks the benchmark's
    # per-layer metrics.  One chunk each, so every call is in this process.
    import json
    import time

    child = Path(dsnls.__file__).resolve().parents[2] / "perfbench" / "child.py"
    env = dict(os.environ)
    src = str(Path(dsnls.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(child), repr(time.monotonic()), str(report), "1", "--",
         *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result["setup_s"] > 0.0
    assert result["layers"]["noise.normals"] == normals
    assert result["layers"]["integrator.steps"] == steps


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 18 ms and 5 MB: the first opened stream loads it
    assert _python_c("import sys, dsnls.cli; print('numpy.random' in sys.modules)") == "False"


def test_python_m_dsnls_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(dsnls.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dsnls", "presets"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "fig1b" in proc.stdout


def _bytes_at_default_and_two_blas_threads(argv, table, tmp_path):
    """`table`'s bytes from `python -m dsnls *argv` run with no BLAS thread
    variable set, so on dsnls's one thread, and with OPENBLAS_NUM_THREADS=2."""
    src = str(Path(dsnls.__file__).resolve().parents[1])
    outputs = []
    for threads in (None, "2"):
        env = {k: v for k, v in os.environ.items() if k not in dsnls._THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        proc = subprocess.run([sys.executable, "-m", "dsnls", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / table).read_bytes())
    return outputs


def test_charge_bytes_independent_of_blas_threads(tmp_path):
    # the forcing product is a BLAS call; its thread count must not move a bit
    default, two = _bytes_at_default_and_two_blas_threads(
        ["charge", "--preset", "fig1b", "--set", "M=40", "--set", "T=2"], "charge.csv", tmp_path)
    assert default == two


def test_j1000_simulate_bytes_independent_of_blas_threads(tmp_path):
    # at J >= P the forcing product is a (32, 100) x (100, 1000) zgemm, large
    # enough for OpenBLAS to split across its threads
    default, two = _bytes_at_default_and_two_blas_threads(
        ["simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "J=1000",
         "--set", "tau=2^-10", "--set", "T=2^-5"], "trajectory.csv", tmp_path)
    assert default == two


def _python_c(code: str, env: dict | None = None) -> str:
    """stdout of a fresh `python -c code` that can import dsnls, with each
    variable of `env` set to its value, or removed where the value is None."""
    full_env = dict(os.environ)
    src = str(Path(dsnls.__file__).resolve().parents[1])
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    for key, value in (env or {}).items():
        if value is None:
            full_env.pop(key, None)
        else:
            full_env[key] = value
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=full_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_blas_thread_policy():
    # `import dsnls.cli` maps one OpenBLAS, numpy's, which also runs the
    # LAPACK solve; unpinned, it starts its worker threads
    report = ("import os, sys\n"
              "before = dict(os.environ)\n"
              "{imports}\n"
              "assert len({{line.split()[-1] for line in open('/proc/self/maps')\n"
              "            if 'openblas' in line}}) == 1\n"
              "print(len(os.listdir('/proc/self/task')))\n"
              "print(sorted(k for k in os.environ.keys() | before\n"
              "             if os.environ.get(k) != before.get(k)))\n"
              "print(dsnls.harness.PROVENANCE['blas_threads'])")
    unset = dict.fromkeys(dsnls._THREAD_VARS)
    assert _python_c(report.format(imports="import dsnls.cli"), unset).splitlines() == [
        "1", "[]",
        "OPENBLAS_NUM_THREADS=1 (dsnls default), GOTO_NUM_THREADS=unset, "
        "OMP_NUM_THREADS=unset, MKL_NUM_THREADS=unset"]
    for user in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads, changed, line = _python_c(report.format(imports="import dsnls.cli"),
                                           {**unset, user: "2"}).splitlines()
        assert changed == "[]"
        assert f"{user}=2 (user)" in line and "dsnls default" not in line
        if len(os.sched_getaffinity(0)) > 1:
            assert int(threads) > 1
    # numpy loaded first has read the variables already: dsnls sets none and
    # claims none took effect
    for value, first in ((None, "OPENBLAS_NUM_THREADS=unset"),
                         ("2", "OPENBLAS_NUM_THREADS=2 (found after numpy loaded)")):
        threads, changed, line = _python_c(report.format(imports="import numpy, dsnls.cli"),
                                           {**unset, "OPENBLAS_NUM_THREADS": value}).splitlines()
        assert changed == "[]"
        assert line == (f"{first}, GOTO_NUM_THREADS=unset, OMP_NUM_THREADS=unset, "
                        "MKL_NUM_THREADS=unset")


def test_started_interpreters_inherit_no_blas_pin():
    # dsnls puts the environment back once OpenBLAS has loaded, so a dsnls
    # started from a dsnls process pins one thread itself, not as a user
    inner = "import dsnls; print(dsnls._BLAS_THREADS.split(', ')[0])"
    outer = ("import subprocess, sys, dsnls\n"
             f"print(subprocess.run([sys.executable, '-c', {inner!r}], capture_output=True,\n"
             "                     text=True, check=True).stdout.strip())")
    assert _python_c(outer, dict.fromkeys(dsnls._THREAD_VARS)) == (
        "OPENBLAS_NUM_THREADS=1 (dsnls default)")


def test_single_chunk_runs_leave_multiprocessing_unloaded(tmp_path):
    # a run of one chunk forks no worker, and no run imports multiprocessing
    out = tmp_path / "one-chunk"
    assert _python_c(
        "import sys, dsnls.cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "dsnls.cli.run(['charge', '--preset', 'fig1b', '--set', 'M=2', '--set', 'T=2^-5', "
        f"'--out', {str(out)!r}])\n"
        "print('multiprocessing' in sys.modules)") == "False\nwrote " + str(out) + "\nFalse"


@pytest.mark.parametrize("command",
                         ["simulate", "simulate-j1000", "charge", "charge-2chunks", "order"])
def test_commands_leave_heavy_modules_unloaded(command, tmp_path):
    # neither `import dsnls.cli` nor the run loads any of these, each of which
    # would add its import time and memory to every run: scipy, whose
    # OpenBLAS would be a second one in the process, scipy.special and
    # scipy.linalg; numpy.f2py and numpy.testing; and a process pool's
    # multiprocessing and concurrent.futures.  On two CPUs simulate-j1000,
    # with three snapshots, forks the trajectory writer, and charge-2chunks
    # forks two chunk workers.
    heavy = ("scipy", "scipy.special", "scipy.linalg", "numpy.f2py", "numpy.testing",
             "multiprocessing", "concurrent.futures")
    argv = {
        "simulate": ["simulate", "--preset", "fig1b", "--set", "kind=simulate"],
        "simulate-j1000": ["simulate", "--preset", "fig1b", "--set", "kind=simulate",
                           "--set", "J=1000", "--set", "tau=2^-10"],
        "charge": ["charge", "--preset", "fig1b", "--set", "M=2"],
        "charge-2chunks": ["charge", "--preset", "fig1b", "--set", "M=2", "--chunk-size", "1"],
        "order": ["order", "--preset", "fig4-stoch", "--set", "M=2"],
    }[command] + ["--set", "T=2^-5", "--out", str(tmp_path / command)]
    lines = _python_c(
        "import sys, dsnls.cli\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules)))\n"
        f"assert dsnls.cli.run({argv!r}) == 0\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules)))").splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]"), lines


@pytest.mark.parametrize("first", ["dsnls", "scipy.linalg"])
def test_lapack_routines_are_scipy_linalg_lapacks(first):
    # whichever is imported first, and so whichever OpenBLAS is mapped first,
    # dsnls's zgttrf/zgttrs give the bits scipy.linalg.lapack's give: a
    # binding that resolves to another library's symbols fails here
    second = "scipy.linalg" if first == "dsnls" else "dsnls"
    assert _python_c(
        f"import {first}, {second}\n"
        "import numpy as np\n"
        "from scipy.linalg import lapack\n"
        "from dsnls.model import make_grid\n"
        "from dsnls.integrator import make_propagator\n"
        "J, m = 9, 7\n"
        "prop = make_propagator(make_grid(J), 2.0 ** -6, 0.5)\n"
        "off = np.full(J - 1, prop._off_minus)\n"
        "*factors, info = lapack.zgttrf(off, np.full(J, prop._diag_minus), off)\n"
        "rng = np.random.default_rng(3)\n"
        "b = rng.standard_normal((J, m)) + 1j * rng.standard_normal((J, m))\n"
        "x, info = lapack.zgttrs(*factors, b)\n"
        "print(all(np.array_equal(o, r) for o, r in zip(prop._factors, factors, strict=True)),\n"
        "      prop.solve_minus(b).tobytes() == np.ascontiguousarray(x).tobytes())"
    ) == "True True"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_in_a_worker_names_the_serial_step(tmp_path, capsys, pin_cpus):
    # here realization 0 blows up at step 1452 and realization 1 at step 567,
    # so the worker on chunk 1 fails long before the one on chunk 0; the
    # lowest-index failing chunk still names what the serial loop names, and
    # the norm crosses the worker's pipe unchanged
    cfg = tmp_path / "boom.cfg"
    cfg.write_text(TINY_CHARGE)
    argv = ["charge", "--config", str(cfg), "--set", "epsilon=3e153", "--set", "M=4",
            "--set", "T=60", "--seed", "8", "--chunk-size", "1"]
    norms = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / f"cpus{cpus}")]) == EXIT_BLOWUP
        assert capsys.readouterr().err == (
            "numerical blow-up: non-finite state after step 1452 (realization 0)\n")
        _assert_blowup_manifest(tmp_path / f"cpus{cpus}", "charge", step=1452, realization=0)
        norms.append(_manifest_lines(tmp_path / f"cpus{cpus}")["last_finite_norm"])
    assert norms[0] == norms[1]
    assert 1e154 < float(norms[0]) < float("inf")


@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").is_file(),
                    reason="finds the workers in /proc/self/task/*/children")
def test_killed_chunk_worker_exits_6(tmp_path, capsys, pin_cpus, children, monkeypatch):
    # the worker on chunk 0 (two realizations) is SIGKILLed while the one on
    # chunk 1 (one realization) still runs: the run names the dead worker,
    # and kills and reaps the other rather than wait for it
    from dsnls import harness

    def charge_or_stall(psi, h, _fn=harness.discrete_charge):
        if psi.shape[1] == 2:
            os.kill(os.getpid(), 9)
        time.sleep(20)
        return _fn(psi, h)
    monkeypatch.setattr(harness, "discrete_charge", charge_or_stall)
    pin_cpus(2)
    out = tmp_path / "killed"
    t0 = time.perf_counter()
    assert run(["charge", "--preset", "fig1b", "--set", "M=3", "--set", "T=2^-5",
                "--chunk-size", "2", "--out", str(out)]) == EXIT_WORKER
    assert time.perf_counter() - t0 < 10
    assert re.fullmatch(r"worker died: the chunk worker process \d+ died "
                        r"\(killed by signal 9\)\n", capsys.readouterr().err)
    assert children() == []
    _assert_worker_died_manifest(out, "charge", r"chunk worker process \d+", "killed by signal 9")


def _assert_partial_manifest(out, command, *failure) -> str:
    """A failed run leaves a partial manifest and no table: provenance, the
    `failure` lines and the config echo, the one record of the config.
    Returns the manifest's text."""
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith(f"command = {command}\n")
    for line in (*PROVENANCE_LINES, *failure, "# config echo", f"| kind = {command}"):
        assert f"\n{line}\n" in manifest, line
    assert parse_config(manifest.split("# config echo\n")[1].replace("| ", "")).kind == command
    assert not _manifest_lines(out).keys() & CONFIG_KEYS
    assert "write_s" not in manifest
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt"]
    return manifest


def _assert_blowup_manifest(out, command, step, realization):
    _assert_partial_manifest(out, command, "status = blow-up", f"failed_step = {step}",
                             f"failed_realization = {realization}")


def _assert_worker_died_manifest(out, command, process, status):
    manifest = _assert_partial_manifest(out, command, "status = worker-died")
    assert re.search(rf"^dead_process = {process} \({status}\)$", manifest, re.MULTILINE)


def _manifest_lines(out) -> dict:
    text = (out / "manifest.txt").read_text()
    return dict(line.split(" = ", 1) for line in text.split("\n\n")[0].splitlines())


class TestNoiseProducer:
    """A lone chunk on two or more CPUs draws its noise in a forked producer."""

    # each longer than one forcing block (`noise.FORCING_BLOCK_STEPS`)
    CASES = {
        "order": ["order", "--preset", "fig4-stoch", "--set", "M=4", "--set", "T=2^-3"],
        "error": ["error", "--preset", "fig3", "--set", "M=4", "--set", "T=2^-3",
                  "--set", "horizons=2^-4, 2^-3"],
        "simulate": ["simulate", "--preset", "fig1b", "--set", "kind=simulate",
                     "--set", "J=1000", "--set", "tau=2^-10", "--set", "T=2^-1",
                     "--set", "record_stride=64"],
        "charge": ["charge", "--preset", "fig1b", "--set", "M=4", "--set", "T=8",
                   "--set", "record_stride=32"],
        # 5 blocks and a partial one of 33 steps, or of one: numpy takes a
        # one-row block's product down its vector-matrix path on either side
        "charge-353": ["charge", "--preset", "fig1b", "--set", "M=4", "--set", "T=5.515625",
                       "--set", "record_stride=32"],
        "charge-321": ["charge", "--preset", "fig1b", "--set", "M=4", "--set", "T=5.015625",
                       "--set", "record_stride=32"],
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_csv_bytes_independent_of_the_producer(self, command, tmp_path, pin_cpus):
        argv = self.CASES[command]
        runs = [(1, [], "in process"), (2, [], "producer process")]
        if command != "simulate":
            runs.append((2, ["--chunk-size", "3"], "in process"))  # two chunk workers
        expected = None
        for cpus, flags, noise in runs:
            pin_cpus(cpus)
            out = tmp_path / f"cpus{cpus}{''.join(flags)}"
            assert run([*argv, *flags, "--out", str(out)]) == EXIT_OK
            got = {f.name: f.read_bytes() for f in out.glob("*.csv")}
            expected = expected or got
            assert got == expected, (cpus, flags)
            manifest = _manifest_lines(out)
            assert manifest["noise"] == noise, (cpus, flags)
            if command == "simulate":
                assert manifest["trajectory_writers"] == str(cpus)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_names_the_serial_step(self, tmp_path, capsys, pin_cpus, children):
        # one chunk of four realizations: realization 2 blows up at step 417,
        # in the seventh forcing block, once both shared slots were refilled
        cfg = tmp_path / "boom.cfg"
        cfg.write_text(TINY_CHARGE)
        argv = ["charge", "--config", str(cfg), "--set", "epsilon=3e153", "--set", "M=4",
                "--set", "T=60", "--seed", "8"]
        failures = []
        for cpus in (1, 2):
            pin_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            capsys.readouterr()
            assert run([*argv, "--out", str(out)]) == EXIT_BLOWUP
            assert children() == []
            manifest = _manifest_lines(out)
            failures.append((capsys.readouterr().err, manifest["failed_step"],
                             manifest["failed_realization"], manifest["last_finite_norm"]))
        assert failures[0] == failures[1]
        err, failed_step, failed_realization, norm = failures[0]
        assert err == "numerical blow-up: non-finite state after step 417 (realization 2)\n"
        assert (failed_step, failed_realization) == ("417", "2")
        assert 1e154 < float(norm) < float("inf")  # a finite state too large to square

    @pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").is_file(),
                        reason="finds the producer in /proc/self/task/*/children")
    def test_killed_producer_raises_runtime_error(self, tmp_path, pin_cpus, children,
                                                  monkeypatch, capsys):
        # kill the producer while the consumer marches the first block: its
        # WorkerDied, a RuntimeError, exits 6 with a partial manifest
        from dsnls import harness

        assert issubclass(harness.WorkerDied, RuntimeError)
        pin_cpus(2)
        calls = []

        def charge_then_kill(psi, h, _fn=harness.discrete_charge):
            calls.append(1)
            if len(calls) == 2:
                (pid,) = children()
                os.kill(pid, 9)
            return _fn(psi, h)
        monkeypatch.setattr(harness, "discrete_charge", charge_then_kill)
        out = tmp_path / "killed"
        assert run([*self.CASES["charge"], "--out", str(out)]) == EXIT_WORKER
        assert re.fullmatch(r"worker died: the noise producer process \d+ died "
                            r"\(killed by signal 9\)\n", capsys.readouterr().err)
        assert children() == []
        _assert_worker_died_manifest(out, "charge", r"noise producer process \d+",
                                     "killed by signal 9")

    def test_single_block_runs_draw_in_process(self, tmp_path, pin_cpus):
        # perfbench's tracer sees only this process: its pinned one-block
        # runs must keep their noise here
        pin_cpus(2)
        for argv in (["charge", "--preset", "fig1b", "--set", "M=2", "--set", "T=2^-2"],
                     ["order", "--preset", "fig4-stoch", "--set", "M=2", "--set", "T=2^-6"],
                     ["simulate", "--preset", "fig1b", "--set", "kind=simulate",
                      "--set", "T=2^-2"]):
            out = tmp_path / argv[0]
            assert run([*argv, "--out", str(out)]) == EXIT_OK
            assert _manifest_lines(out)["noise"] == "in process", argv


@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").is_file(),
                    reason="finds the writer in /proc/self/task/*/children")
class TestTrajectoryWriterProcess:
    """On two CPUs a forked writer formats and appends trajectory.csv's second half."""

    # 16 steps, one forcing block, so the noise is drawn in process; the
    # snapshots at steps 0 and 16 are split between the two writers
    ARGV = ["simulate", "--preset", "fig1b", "--set", "kind=simulate", "--set", "T=2^-2"]

    def test_killed_writer_exits_6_and_leaves_no_file(self, tmp_path, pin_cpus, children,
                                                      monkeypatch, capsys):
        import dsnls.cli as cli

        pin_cpus(2)

        def kill_then_write(path, snapshots, nodes, _fn=cli._write_snapshots):
            (pid,) = children()
            os.kill(pid, 9)
            _fn(path, snapshots, nodes)
        monkeypatch.setattr(cli, "_write_snapshots", kill_then_write)
        out = tmp_path / "killed"
        assert run([*self.ARGV, "--out", str(out)]) == EXIT_WORKER
        assert re.fullmatch(r"worker died: the trajectory writer process \d+ died "
                            r"\(killed by signal 9\)\n", capsys.readouterr().err)
        assert children() == []
        _assert_worker_died_manifest(out, "simulate", r"trajectory writer process \d+",
                                     "killed by signal 9")

    def test_failed_append_is_an_io_error(self, tmp_path, pin_cpus, children, monkeypatch,
                                          capfd):
        # the writer process opens the file for append; it fails there alone
        import builtins

        import dsnls.cli as cli

        pin_cpus(2)

        def no_append(path, mode="r", *args, **kwargs):
            if mode == "a":
                raise OSError(28, "No space left on device")
            return builtins.open(path, mode, *args, **kwargs)
        monkeypatch.setattr(cli, "open", no_append, raising=False)
        out = tmp_path / "full"
        assert run([*self.ARGV, "--out", str(out)]) == EXIT_IO
        err = capfd.readouterr().err
        assert "i/o error: [Errno 28] No space left on device\n" in err
        assert re.search(r"^i/o error: the trajectory writer process \d+ could not append to ",
                         err, re.MULTILINE)
        assert children() == []
        assert not (out / "trajectory.csv").exists()


class TestErgodicCli:
    def test_ergodic_run(self, tmp_path):
        cfg = tmp_path / "erg.cfg"
        cfg.write_text("""\
[model]
alpha = 0.5
lambda = 1
epsilon = 1.0

[grid]
J = 4

[noise]
P = 3
spectrum = power-law(6)
seed = 5

[time]
tau = 2^-5
T = 0.5

[experiment]
kind = ergodic
M = 2
record_stride = 8
initials = initial(1), initial(2)
observables = exp-norm2, sin-norm2
""")
        out = tmp_path / "erg"
        assert run(["ergodic", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "ergodic.csv").read_text().strip().splitlines()
        assert lines[0] == "t,initial,observable,mean,se"
        assert len(lines) > 1
