"""Flow-level (fluid) simulation backend with cross-fidelity validation.

``repro.flow`` trades packet-level exactness for orders-of-magnitude
cheaper cells: messages drain as weighted max-min fair flows over the
same topology, placements, and routing path logic as the packet engine,
producing the same :class:`~repro.core.runner.RunResult` metrics. Select
it with ``run_single(..., backend="flow")`` (or ``--backend flow`` on
the CLI); validate it against the exact engine with
:func:`~repro.flow.fidelity.fidelity_report`.
"""

from repro.flow.fabric import (
    DEFAULT_FABRIC,
    FABRIC_NAMES,
    FlowFabric,
    make_flow_fabric,
)
from repro.flow.fabric_array import ArrayFlowFabric
from repro.flow.fidelity import FidelityReport, fidelity_report, kendall_tau
from repro.flow.routes import (
    BACKEND_NAMES,
    FlowEntry,
    FlowParams,
    FlowRouteModel,
)
from repro.flow.solver import (
    DEFAULT_SOLVER,
    SOLVER_NAMES,
    get_solver,
    solve_scalar,
    solve_vector,
)

__all__ = [
    "ArrayFlowFabric",
    "BACKEND_NAMES",
    "DEFAULT_FABRIC",
    "DEFAULT_SOLVER",
    "FABRIC_NAMES",
    "FlowFabric",
    "FlowEntry",
    "FlowParams",
    "FlowRouteModel",
    "FidelityReport",
    "SOLVER_NAMES",
    "fidelity_report",
    "get_solver",
    "kendall_tau",
    "make_flow_fabric",
    "solve_scalar",
    "solve_vector",
]
