"""Facility assignment with fair cost sharing on a line: exact equilibria,
optimal assignments, strategyproof mechanisms, and their audit harnesses."""

from .costs import (
    EPS_CMP,
    AgentCost,
    CostBreakdown,
    agent_cost,
    harmonic_numbers,
    potential,
    social_cost,
)
from .equilibrium import (
    Deviation,
    DynamicsStep,
    DynamicsTrace,
    HarmonicBoundReport,
    NoCrossVerdict,
    PneVerdict,
    best_response,
    brute_force_min_potential,
    check_harmonic_bound,
    check_no_cross,
    compute_pne_dp,
    consecutive_blocks_ok,
    is_pne,
    run_dynamics,
)
from .mechanisms import (
    AuditReport,
    EmpiricalRatio,
    EnvParams,
    EnvironmentClass,
    LemmaPropertyReport,
    MechanismPreconditionError,
    MechanismSpec,
    apply_mechanism,
    audit_anonymous,
    audit_lemma_properties,
    audit_strategyproof,
    audit_unanimous,
    best_facility,
    classify_environment,
    default_audit_grid,
    empirical_ratio,
    env_params,
    k_rank,
    nearest_facility_mechanism,
    ratio_lower_bound,
    ratio_lower_bound_terms,
    resolve_x_star,
    spec_from_dict,
    validate_spec,
)
from .model import (
    Assignment,
    Environment,
    Instance,
    InstanceParseError,
    Profile,
    ValidationError,
    generate_instance,
    load_instance,
    save_instance,
)
from .optimal import (
    BruteForceLimitError,
    OptResult,
    optimal_block_dp,
    optimal_brute_force,
)

__version__ = "0.1.0"
