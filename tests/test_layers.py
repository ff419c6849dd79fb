"""The modules import in one direction only, gaussian <- aperture <- receiver, and none loads scipy or an executor."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpasim

SRC = str(Path(qpasim.__file__).resolve().parents[1])


def loaded_after_import(module):
    code = "import sys, %s; print(' '.join(sys.modules))" % module
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return set(done.stdout.split())


@pytest.mark.parametrize("module, forbidden", [
    ("qpasim.gaussian", {"qpasim.aperture", "qpasim.receiver"}),
    ("qpasim.aperture", {"qpasim.receiver"}),
])
def test_lower_layer_does_not_load_higher_ones(module, forbidden):
    loaded = loaded_after_import(module)
    assert module in loaded
    assert not loaded & forbidden


@pytest.mark.parametrize("module", ["qpasim", "qpasim.aperture", "qpasim.receiver"])
def test_import_loads_no_scipy(module):
    # importing scipy costs several times the benchmark's whole setup time, concurrent.futures about 6 ms of its 0.1 s;
    # the sampler's threads come from threading, which numpy loads anyway
    loaded = loaded_after_import(module)
    assert module in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert not {m for m in loaded if m.startswith("concurrent.futures")}
