"""Package guards: no module reads the wall clock, starts a thread, or
keeps a private helper nothing uses, and requests reach a router through
one arrival path.

Everything the model and the simulators report is a function of their
inputs on the simulated clock.  Wall-clock questions about the simulator
itself are answered from outside the package (``simbench/run.py --trace 1``
splits a run's wall time by layer).  Pricing and simulation are
pure-Python computation, which the GIL serializes, so threads buy nothing.
"""

import ast
import collections
import pathlib
import re

import repro

PACKAGE_DIR = pathlib.Path(repro.__file__).parent


def _sources():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) > 50
    return {path.relative_to(PACKAGE_DIR.parent): path.read_text() for path in paths}


def test_no_module_reads_the_wall_clock():
    for path, source in _sources().items():
        for forbidden in ("import time", "from time", "datetime", "perf_counter"):
            assert forbidden not in source, f"{forbidden!r} found in {path}"


def test_no_module_imports_threads():
    for path, source in _sources().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top not in ("threading", "concurrent"), (
                    f"{path}:{node.lineno} imports {module}"
                )


def test_every_private_definition_is_used():
    """Each ``_name`` function, method or class occurs, as a whole word,
    somewhere in the package besides its definitions (dunders aside)."""
    sources = _sources()
    definitions = collections.Counter()
    where = {}
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.startswith("__"):
                    definitions[name] += 1
                    where.setdefault(name, f"{path}:{node.lineno}")
    # Each match is a whole word that starts with an underscore.
    occurrences = collections.Counter(
        word for source in sources.values() for word in re.findall(r"\b_\w*", source)
    )
    unused = [
        f"{name} ({where[name]})"
        for name, count in sorted(definitions.items())
        if occurrences[name] <= count
    ]
    assert not unused, f"private definitions nothing uses: {unused}"


def test_one_place_reads_a_router_route():
    """Every delivery (stream arrival, retry, hedge, crash re-queue) is
    routed by the event loop's one ``dispatch``: a second arrival path
    would read ``.route`` a second time."""
    sites = [
        f"{path}:{node.lineno}"
        for path, source in _sources().items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "route"
    ]
    assert len(sites) == 1, f"route read at {sites}"
