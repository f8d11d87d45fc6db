"""Committed SHA-256 digests of the CSVs of small runs of every preset.

On one toolchain every CSV byte is a pure function of (config, seed), so
`digests.json` pins them: a change that moves a byte fails here.  A change
meant to move bytes rewrites the file, from the root of a checkout, with

    PYTHONPATH=src python tests/test_digests.py

and says why.  The file is keyed by the toolchain lines of
`harness.PROVENANCE`; on another toolchain the test names the lines that
differ and skips.  Manifests hold timings and are not digested.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dsnls.cli import EXIT_OK, run
from dsnls.harness import PROVENANCE

DIGESTS = Path(__file__).with_name("digests.json")

#: The PROVENANCE lines bytes are reproducible under.
TOOLCHAIN = ("python", "numpy", "numpy_blas", "numpy_lapack", "blas_core", "numpy_simd")

#: name -> dsnls argv; small runs of every preset.  fig4-stoch spans 64
#: forcing blocks and simulate 256 steps, one lone chunk each; fig1b-chunks
#: is fig1b in three chunks.
RUNS = {
    "fig1a": ["charge", "--preset", "fig1a", "--set", "M=8"],
    "fig1b": ["charge", "--preset", "fig1b", "--set", "M=8"],
    "fig1b-chunks": ["charge", "--preset", "fig1b", "--set", "M=8", "--chunk-size", "3"],
    "fig2": ["ergodic", "--preset", "fig2", "--set", "M=8", "--set", "T=10"],
    "fig3": ["error", "--preset", "fig3", "--set", "M=8", "--set", "T=5",
             "--set", "horizons=2.5, 5"],
    "fig4-det": ["order", "--preset", "fig4-det", "--set", "M=8"],
    "fig4-stoch": ["order", "--preset", "fig4-stoch", "--set", "M=8"],
    "diagnose": ["diagnose", "--seed", "3"],
    "simulate-j1000": ["simulate", "--preset", "fig1b", "--set", "kind=simulate",
                       "--set", "J=1000", "--set", "tau=2^-10", "--set", "T=2^-2",
                       "--set", "record_stride=64"],
}


def toolchain() -> dict:
    return {key: PROVENANCE[key] for key in TOOLCHAIN}


def digests(out: Path) -> dict:
    """{"run/file.csv": SHA-256} of every CSV the RUNS write under `out`."""
    got = {}
    for name, argv in RUNS.items():
        assert run([*argv, "--out", str(out / name)]) == EXIT_OK, name
        for path in sorted((out / name).glob("*.csv")):
            got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return got


@pytest.mark.parametrize("cpus", [1, 2])
def test_csv_bytes_match_committed_digests(cpus, tmp_path, pin_cpus, capsys):
    # one CPU runs every chunk and its noise here; two fork chunk workers
    # (fig1b-chunks) and noise producers (fig2, fig3, fig4-stoch,
    # simulate-j1000)
    committed = json.loads(DIGESTS.read_text())
    mismatched = {key: (committed["toolchain"].get(key), value)
                  for key, value in toolchain().items()
                  if committed["toolchain"].get(key) != value}
    if mismatched:
        pytest.skip(f"digests.json is for another toolchain: {mismatched}")
    assert committed["runs"] == RUNS
    pin_cpus(cpus)
    assert digests(tmp_path) == committed["digests"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"toolchain": toolchain(), "runs": RUNS, "digests": digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}", file=sys.stderr)
