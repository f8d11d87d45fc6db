import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dsnls
from dsnls.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    run,
)
from dsnls.config import ConfigError, parse_config, serialize_config
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
        with pytest.raises(ValueError):
            preset_config("fig9")

    def test_seed_override(self):
        assert preset_config("fig1a", seed=123).noise.seed == 123


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

    def test_kind_mismatch_is_config_error(self, tmp_path):
        cfg = tmp_path / "charge.cfg"
        cfg.write_text(TINY_CHARGE)
        assert run(["ergodic", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_parse_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nbanana = 1\n")
        assert run(["charge", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_missing_config_flag(self, tmp_path):
        assert run(["charge", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_exit_code(self, tmp_path):
        cfg = tmp_path / "boom.cfg"
        cfg.write_text(TINY_CHARGE.replace(
            "record_stride = 4",
            "record_stride = 4\ninitial = explicit: 1e200+0j, 0, 0, 0"))
        assert run(["charge", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_BLOWUP

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
tau_ref = 2^-9
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
tau_ref = 2^-8
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

    def test_diagnose_prints_pass_lines(self, capsys, tmp_path):
        run(["diagnose", "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert "PASS energy-identity" in out
        assert "PASS conformal-multisymplectic" in out


def test_python_m_dsnls_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(dsnls.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dsnls", "presets"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "fig1b" in proc.stdout


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
