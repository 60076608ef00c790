"""The public API: ``delsim.__all__`` names exactly what the package
exports, and what the pipeline imports."""

import subprocess

import delsim
from conftest import python


def test_all_names_resolve():
    missing = [name for name in delsim.__all__ if not hasattr(delsim, name)]
    assert missing == []
    assert len(set(delsim.__all__)) == len(delsim.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from delsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(delsim.__all__)


PIPELINE = """
import sys
from delsim import serialize
from delsim.generators import agreement_run, snapshot_run, staircase_setup
from delsim.models import standard_workspace
from delsim.obstruction import decide_obstruction
from delsim.simulation import SimulationEngine

ws = standard_workspace(2, (0, 1))
snap, agree = snapshot_run(ws, 1), agreement_run(ws, 1)
stair = staircase_setup(4)
for left, right in [(snap.model, agree.model),
                    (stair.protocol_run.model, stair.task_run.model)]:
    eng = SimulationEngine(left, right)
    for mode in ("K", "D"):
        assert decide_obstruction(left, right, mode).exists
        eng.verify(eng.initial_relation(), mode)
    for m in (left, right):
        serialize.model_from_json(serialize.model_to_json(m))
    serialize.relation_from_json(serialize.relation_to_json(eng.initial_relation()))
print("numpy.ma" in sys.modules)
"""


def test_pipeline_never_imports_numpy_ma():
    """Importing ``numpy.ma`` adds about 1.3 MB of RSS; the first
    option-less ``np.unique`` or ``np.isin`` does it."""
    proc = subprocess.run(python("-c", PIPELINE), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
