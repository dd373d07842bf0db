"""Compensation engine for lost-chance claims.

A claim is modelled as a pair of distributions over a shared outcome
space: the counterfactual world (duty honoured) and the factual world
(duty breached).  The engine joins the two worlds with a coupling,
conditions on an information policy, and converts the conditional value
gap into a compensation schedule under a clamped or fair-mean indemnity.
Lost-choice claims add an explicit choice layer that is flattened onto
the same machinery.
"""

import importlib

from .casefile import LoadedCase, SCHEMA_TEXT, dump_case, load_case, save_case
from .choice import (
    ChoiceCaseModel,
    best_dutiful_choice,
    evaluate_choice_case,
    flatten_choice_case,
    mitigation_offset,
    presume_choice_ii_cp,
    presume_choice_it_cp,
    validate_choice_case,
)
from .coupling import (
    Cells,
    Coupling,
    comonotone_cells,
    coupling_from_map,
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    oracle_min_cost,
    transport_cost,
)
from .outcome import (
    CaseModel,
    CaseValidationError,
    CurveMoneyMap,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
    TabulatedMoneyMap,
    UtilityCurve,
    award_from_compensation,
    validate_case,
)
from .valuation import (
    CompensationSchedule,
    ConfigurationError,
    CouplingStack,
    GapStack,
    PolicyCombo,
    cc_indemnity,
    conditional_gap,
    evaluate_grid,
    evaluate_policy,
    fm_indemnity,
    oracle_best_schedule,
    schedule_risk,
    selective_groups,
    solve_lambda,
)

# The modules behind the table, sweep and verify verbs load when one of
# their names is first read (PEP 562), so `evaluate` never imports them.
_LAZY = {
    "scenarios": (
        "MATOS_BAND_EDGES",
        "MATOS_CONSOLATION",
        "MATOS_FACTUAL_TOP_CHANCE",
        "MATOS_GUARANTEED",
        "MATOS_TOP",
        "RejectedFormulaComparison",
        "Scenario",
        "matos_award",
        "matos_band",
        "matos_case",
        "matos_sweep",
        "matos_threshold",
        "medical_malpractice",
        "medical_sweep",
        "prize_case",
        "rejected_formula_comparison",
        "urn_independent",
        "urn_painted",
    ),
    "tables": ("TableCell", "reproduce_table"),
    "verify": ("run_verification",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "CaseModel",
    "CaseValidationError",
    "Cells",
    "ChoiceCaseModel",
    "CompensationSchedule",
    "ConfigurationError",
    "Coupling",
    "CouplingStack",
    "CurveMoneyMap",
    "DiscreteDistribution",
    "GapStack",
    "IdentityMoneyMap",
    "LoadedCase",
    "MATOS_BAND_EDGES",
    "MATOS_CONSOLATION",
    "MATOS_FACTUAL_TOP_CHANCE",
    "MATOS_GUARANTEED",
    "MATOS_TOP",
    "OutcomeSpace",
    "PolicyCombo",
    "RejectedFormulaComparison",
    "SCHEMA_TEXT",
    "Scenario",
    "TableCell",
    "TabulatedMoneyMap",
    "UtilityCurve",
    "award_from_compensation",
    "best_dutiful_choice",
    "cc_indemnity",
    "comonotone_cells",
    "conditional_gap",
    "coupling_from_map",
    "dump_case",
    "evaluate_choice_case",
    "evaluate_grid",
    "evaluate_policy",
    "evidence_coupling",
    "flatten_choice_case",
    "fm_indemnity",
    "independence_coupling",
    "least_divergence_coupling",
    "load_case",
    "matos_award",
    "matos_band",
    "matos_case",
    "matos_sweep",
    "matos_threshold",
    "medical_malpractice",
    "medical_sweep",
    "mitigation_offset",
    "oracle_best_schedule",
    "oracle_min_cost",
    "presume_choice_ii_cp",
    "presume_choice_it_cp",
    "prize_case",
    "rejected_formula_comparison",
    "reproduce_table",
    "run_verification",
    "save_case",
    "schedule_risk",
    "selective_groups",
    "solve_lambda",
    "transport_cost",
    "urn_independent",
    "urn_painted",
    "validate_case",
    "validate_choice_case",
]
