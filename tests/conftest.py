from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

# the tools under tools/ are scripts, not a package; tests import them by name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


@pytest.fixture(autouse=True, scope="session")
def _reference_counting_only():
    # The suite allocates millions of acyclic cells (the reference stream
    # towers of both divisions, deep expressions); generational GC rescans
    # the live ones on every collection and dominates the heavy tests.
    # Reference counting reclaims everything the suite allocates.
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()
