"""Import budget: which modules a fresh interpreter loads.

Every CLI call, sweep worker and pool child pays the package's import.
The runtime needs numpy only: networkx (a test oracle) and scipy must
never load, and the message simulator, the fluid model and the ASCII
plots load on first use.  This checks module sets, not times; the
``startup/import`` bench cell times the import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
NEVER = ("networkx", "scipy")
LAZY = ("repro.msgsim", "repro.fluid", "repro.viz")


def _loaded_after(statement: str) -> set[str]:
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("statement", ["import repro", "import repro.sim.parallel"])
def test_engine_imports_load_no_optional_module(statement):
    loaded = _loaded_after(statement)
    assert not loaded & {*NEVER, *LAZY}


def test_sweep_imports_load_neither_networkx_nor_the_message_simulator():
    loaded = _loaded_after("import repro.runs, repro.experiments")
    assert not loaded & {*NEVER, "repro.msgsim"}


def test_lazy_subpackages_resolve_as_attributes():
    loaded = _loaded_after(
        "import repro\n"
        "assert repro.msgsim.run_message_sim and repro.analysis.summarize\n"
        "assert repro.fluid.FluidSystem and repro.viz.sparkline"
    )
    assert {"repro.msgsim", "repro.analysis", "repro.fluid", "repro.viz"} <= loaded
    assert not loaded & set(NEVER)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
