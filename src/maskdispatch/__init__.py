"""Privacy-preserving DC economic-dispatch market clearing."""

from maskdispatch.lp import (
    LpProblem, LpSolution, SolverConfig, FeasibilityReport,
    solve_lp, check_point, NumericalBreakdown, DimensionMismatch,
)
from maskdispatch.market import (
    MarketSystem, Line, Generator, Load, BidSegment,
    EdBlocks, ClearedMarket, ClearingFailed,
    build_ed_blocks, assemble_ed_lp, solve_clear, line_flows,
    social_welfare, gen_synthetic, regroup_entities,
    IslandedNetwork, EmptyMarket, InvalidCounts,
)
from maskdispatch.masking import (
    MaskConfig, MaskKeys, EntityKeys, IsoKeys, EncryptedSubmission,
    TransformedLp, AuditReport,
    gen_keys, vertical_mask_generic, horizontal_mask_generic,
    build_transformed_ed, recover_primal, recover_lmp, leakage_audit,
    KeyGenerationFailed, SingularMask, NonPositiveDiagonal,
    MissingSubmission, SpanMismatch,
)
from maskdispatch.protocol import (
    Message, CommLog, CostReport,
    run_market_round, comm_cost,
    masked_submission_counts, clear_submission_counts,
    ProtocolViolation,
)
from maskdispatch.casefile import (
    load_case, save_case, system_to_case, case_to_system, CaseFileError,
)

__version__ = "0.1.0"
