import pytest

from dsnls import harness


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(n) makes the harness see n usable CPUs, whatever the machine has."""
    def pin(n):
        monkeypatch.setattr(harness, "usable_cpus", lambda: n)
    return pin
