"""Epistemic solvability of distributed tasks on simplicial models.

The library builds chromatic simplicial models of protocols and tasks,
updates them with action models, computes maximum K- and D-simulations
between them, and synthesizes verified logical obstructions when no
simulation is total. See the README for the command-line interface.
"""

from .complexes import ChromaticComplex, Facet, Vertex, validate_complex
from .errors import (DelsimError, InternalConsistencyError, SchemaError,
                     UsageError)
from .logic import (Formula, FormulaClass, ModelTable, atom, classify, conj,
                    dag_size, disj, dknow, from_sexp, know, neg, to_sexp,
                    tree_size)
from .models import (ActionModel, Morphism, ProductResult, SimplicialModel,
                     Workspace, find_morphism, graph_of_morphism, input_model,
                     product_update, standard_workspace)
from .obstruction import (ObstructionVerdict, characteristic_formula,
                          characteristic_formulas, decide_obstruction,
                          verify_obstruction)
from .simulation import (Relation, SimulationChain, SimulationEngine,
                         VerificationReport, totality_witnesses)

__version__ = "0.1.0"

__all__ = [
    "ActionModel", "ChromaticComplex", "DelsimError", "Facet", "Formula",
    "FormulaClass", "InternalConsistencyError", "ModelTable", "Morphism",
    "ObstructionVerdict", "ProductResult", "Relation", "SchemaError",
    "SimplicialModel", "SimulationChain", "SimulationEngine", "UsageError",
    "VerificationReport", "Vertex", "Workspace", "atom", "classify",
    "characteristic_formula", "characteristic_formulas", "conj", "dag_size",
    "decide_obstruction", "disj", "dknow", "find_morphism", "from_sexp",
    "graph_of_morphism", "input_model", "know", "neg", "product_update",
    "standard_workspace", "to_sexp", "totality_witnesses", "tree_size",
    "validate_complex", "verify_obstruction",
]
