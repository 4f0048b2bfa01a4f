"""Shared test setup."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # Tests that start ``python -m mdsessions.cli`` in a subprocess import the
    # package from ``src``, as the test process does, without an install.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
