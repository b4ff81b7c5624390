"""Determinism guard: no module of the package reads the wall clock.

Everything the model and the simulators report is a function of their
inputs on the simulated clock.  Wall-clock questions about the simulator
itself are answered from outside the package (``simbench/run.py --trace 1``
splits a run's wall time by layer).
"""

import pathlib

import repro


def test_no_module_reads_the_wall_clock():
    package_dir = pathlib.Path(repro.__file__).parent
    paths = sorted(package_dir.rglob("*.py"))
    assert len(paths) > 50
    for path in paths:
        source = path.read_text()
        for forbidden in ("import time", "from time", "datetime", "perf_counter"):
            assert forbidden not in source, f"{forbidden!r} found in {path}"
