"""Finite unitary dilations of contractions with certified independence.

Three constructions: the degree-N unitary power-dilation of one contraction,
the iterated simultaneous dilation of a doubly commuting tuple, and the
freely independent joint dilation on a truncated free product space; plus the
certificates (tensor/free independence, traciality, faithfulness) and the
combinatorial machinery (noncrossing partitions, free cumulants, the mixed
moment oracle) used to cross-check them.

The names below are imported from their modules on first use, so that
``import freedilation`` loads no module and the command line sets its
environment before numpy loads (see ``cli``).
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "operator_core": (
        "ContractionError",
        "ShapeMismatchError",
        "State",
        "StateError",
        "adjoint",
        "defect_pair",
        "operator_norm",
        "purify",
        "random_contraction",
        "random_state",
        "random_unitary",
    ),
    "serialization": (
        "matrix_from_obj",
        "matrix_to_obj",
        "state_from_obj",
        "state_to_obj",
    ),
    "dilation": (
        "DilationResult",
        "NotDoublyCommutingError",
        "doubly_commuting_dilation",
        "finite_unitary_dilation",
        "unitarity_residual",
        "verify_power_dilation",
    ),
    "ncprob": (
        "BudgetError",
        "CheckReport",
        "GenSet",
        "Word",
        "center",
        "evaluate_word",
        "faithfulness_check",
        "free_mixed_moment_oracle",
        "parse_word",
    ),
    "_gram": (
        "free_independence_check",
        "make_tensor_independent",
        "tensor_independence_check",
        "trace_check",
    ),
    "_moments": ("evaluate_product", "moment_budget_check", "parse_product"),
    "_freeprob": (
        "free_cumulants",
        "free_mixed_moments",
        "haar_unitary_marginal",
        "matrix_marginal",
        "moments_from_cumulants",
        "noncrossing_partitions",
    ),
    "free_product": (
        "FockBasis",
        "FockDimensionError",
        "FreeDilationScenario",
        "build_fock",
        "free_unitary_dilation",
        "left_representation",
        "restricted_unitarity_residual",
    ),
    "harness": (
        "IngestError",
        "Model",
        "Scenario",
        "build_model",
        "emit",
        "ingest",
        "render_text",
        "report_fingerprint",
        "run_theorem_suite",
        "scenario_from_obj",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the public submodules and names; the private modules only resolve names
__all__ = sorted([*(m for m in _EXPORTS if not m.startswith("_")), *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
