"""Loiter-circle packing, radius optimization, Dubins transitions and
failure recovery for fixed-wing UAV area coverage."""

from .errors import ConfigError, InfeasibleError, PlanningError
from .geometry import (
    AreaSpec,
    LoiterCircle,
    PackingKind,
    PackingParams,
    PlatformModel,
    SensorModel,
    Vec2,
    coverage_radius,
    lens_area,
    max_loiter_radius,
    min_comm_radius,
    min_turn_radius,
    packing_params,
)
from .packing import PackingLayout, pack, uav_count
from .optimize import (
    FleetBudget,
    RadiusSolution,
    ideal_radius_after_loss,
    revisit_period,
    solve_radius,
)
from .dubins import (
    DubinsPath,
    DubinsWord,
    Pose,
    TransitionPlan,
    closest_approach,
    plan_transition,
    sample,
    shortest_path,
    track,
)
from .fleet import (
    CoverageReport,
    FailureEvent,
    FleetState,
    RecoveryOutcome,
    RecoveryPlan,
    SurvivorReport,
    SweepPoint,
    SweepResult,
    apply_recovery,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    loss_sweep,
    step,
    super_agent_recover,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
