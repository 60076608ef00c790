import sys

import pytest
from hypothesis import settings

# Example counts for the property tests that do not set their own:
# ``--hypothesis-profile=ci-deep`` runs ten times as many as the default.
settings.register_profile("default", max_examples=40)
settings.register_profile("ci-deep", max_examples=400)

from delsim.generators import (agreement_run, knowall_run, snapshot_run,
                               staircase_setup, DiGraph)
from delsim.models import standard_workspace


def python(*args: str) -> list[str]:
    """A command line running this interpreter on ``args`` with the parent's
    ``-X dev`` and ``-W`` options, so a run with warnings as errors holds
    its subprocesses to the same rule."""
    return [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []),
            *(opt for w in sys.warnoptions for opt in ("-W", w)), *args]


@pytest.fixture(scope="session")
def ws2():
    return standard_workspace(2, (0, 1))


@pytest.fixture(scope="session")
def ws3():
    return standard_workspace(3)


@pytest.fixture(scope="session")
def snap1_2(ws2):
    return snapshot_run(ws2, 1)


@pytest.fixture(scope="session")
def agree1_2(ws2):
    return agreement_run(ws2, 1)


@pytest.fixture(scope="session")
def agree2_2(ws2):
    return agreement_run(ws2, 2)


@pytest.fixture(scope="session")
def snap1_3(ws3):
    return snapshot_run(ws3, 1)


@pytest.fixture(scope="session")
def snap2_3(ws3):
    return snapshot_run(ws3, 2)


@pytest.fixture(scope="session")
def snap_si(ws3):
    return snapshot_run(ws3, 2, (0, 0, 0))


@pytest.fixture(scope="session")
def agree2_3(ws3):
    return agreement_run(ws3, 2)


@pytest.fixture(scope="session")
def stair():
    return staircase_setup(4)


@pytest.fixture(scope="session")
def knowall_loops(ws3):
    g = DiGraph(3, frozenset((p, p) for p in range(3)))
    return knowall_run(ws3, [g], 1)
