"""Keep ``pytest benchmarks/`` to the experiment tables.

The end-to-end benchmark's own tests run only when this directory (or a
file in it) is named on the command line:
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent


def _names_here(arg: str) -> bool:
    path = Path(arg.split("::")[0]).resolve()
    return path == HERE or HERE in path.parents


def pytest_ignore_collect(collection_path, config):
    if collection_path.parent == HERE and not any(_names_here(a) for a in config.args):
        return True
    return None
