import os
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def checkout_on_subprocess_path():
    """pyproject's `pythonpath` puts src/ on this process's path only; the CLI
    tests start `python -m nvswap.cli` subprocesses, which import it from the
    environment."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
