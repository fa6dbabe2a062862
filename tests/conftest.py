import os
from pathlib import Path

import pytest

import morsecs


@pytest.fixture(autouse=True)
def _child_pythonpath(monkeypatch):
    """Interpreters a test starts import the same morsecs as the test.

    pytest's `pythonpath` setting reaches only its own process; this makes
    `python -m morsecs.cli` in a subprocess work from an uninstalled
    checkout too.
    """
    src = str(Path(morsecs.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
