"""The import layering of DESIGN.md §2: each command loads its own layer.

The package ``__init__`` modules resolve their public names on first
use, so ``import repro.cli`` loads the sort path and nothing else:
not the simulator, the experiments, the statistics, the memory
broker, the operators, the store or the service.  The deny-lists and the child that reports ``sys.modules``
live in ``benchmarks/bench_startup.py``, whose ``--smoke`` runs the
same check.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_spec = importlib.util.spec_from_file_location(
    "bench_startup", os.path.join(ROOT, "benchmarks", "bench_startup.py")
)
bench_startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_startup)

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.sort",
    "repro.merge",
    "repro.runs",
    "repro.ops",
    "repro.service",
    "repro.engine",
)


@pytest.fixture(scope="module")
def layering():
    return bench_startup.check_layering(SRC)


def test_sort_deny_list_covers_the_simulator_and_the_backends():
    deny = bench_startup.NEVER_LOADED + bench_startup.DENY_LISTS["sort"]
    for name in ("repro.iosim", "repro.experiments", "repro.stats",
                 "repro.model", "repro.merge.reading", "repro.sort.external",
                 "repro.sort.memory_broker", "multiprocessing.managers",
                 "repro.store", "repro.service"):
        assert name in deny


@pytest.mark.parametrize("command", sorted(bench_startup.DENY_LISTS))
def test_command_loads_nothing_outside_its_layer(layering, command):
    assert layering[command]["denied_loaded"] == []


def test_sort_main_imports_no_repro_module(layering):
    # Everything a sort runs is loaded when ``import repro.cli``
    # returns, so traced runs attribute no import time to ``main``.
    assert layering["sort"]["imported_by_main"] == []


def test_denied_matches_submodules_only_on_a_dot():
    assert bench_startup.denied(
        ["repro.store", "repro.store.wal", "repro.stores", "repro.cli"],
        ("repro.store",),
    ) == ["repro.store", "repro.store.wal"]


def test_importing_the_packages_loads_no_submodule():
    code = (
        "import sys\n"
        f"import {', '.join(LAZY_PACKAGES[:-1])}\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == sorted(LAZY_PACKAGES[:-1])


def test_memory_broker_loads_no_multiprocessing():
    # The broker serves only the single-threaded simulator; nothing in
    # it crosses a process boundary, so it needs no multiprocessing.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.sort.memory_broker; "
         "print(' '.join(m for m in sys.modules "
         "if m.split('.')[0] == 'multiprocessing'))"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == []


def test_serve_path_loads_no_asyncio():
    # The service runs on threads only (DESIGN.md §16): neither the
    # CLI nor the server module behind ``repro serve`` loads asyncio.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.service.server; "
         "print(' '.join(m for m in sys.modules "
         "if m.split('.')[0] == 'asyncio'))"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == []


def test_registries_are_complete_in_a_fresh_interpreter():
    # The adaptive input heuristic registers itself when its module
    # loads; a lazy repro.core must not drop it from the registry the
    # CLI offers as --input-heuristic choices.
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.core.heuristics import INPUT_HEURISTICS as names; "
         "print(' '.join(sorted(names)))"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == ["adaptive", "alternate", "balancing",
                                   "mean", "median", "random", "useful"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(namespace)


def test_lazy_names_are_the_defining_modules_objects():
    import repro
    import repro.sort
    from repro.core.two_way import TwoWayReplacementSelection
    from repro.merge.kway import DEFAULT_FAN_IN
    from repro.merge.merge_tree import DEFAULT_FAN_IN as tree_fan_in
    from repro.sort.spill import FileSpillSort

    assert repro.TwoWayReplacementSelection is TwoWayReplacementSelection
    assert repro.sort.FileSpillSort is FileSpillSort
    assert DEFAULT_FAN_IN == tree_fan_in == 10
