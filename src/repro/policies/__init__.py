"""Pluggable placement/migration policies ("the policy zoo").

The paper identifies *which* objects can live in NVM; this subsystem
makes the *how* pluggable: a registry of policies sharing one ABC
contract, evaluated as pure functions over replayed traces, swept over
workload x device x endurance-budget grids by the ``policy_zoo``
experiment and the ``nvscavenger policies`` CLI.
"""

from repro.policies.base import ObjectSpan, PlacementPolicy, PolicyContext
from repro.policies.registry import (
    POLICIES,
    available_policies,
    create_policy,
    register_policy,
)
from repro.policies import zoo  # noqa: F401 — populates the registry
from repro.policies.zoo import (
    EnduranceAware,
    NoMigration,
    PredictiveMigration,
    RamosMigration,
    StaticOracle,
    ThresholdMigration,
)
from repro.policies.eval import (
    LINE_BYTES,
    PageTrace,
    PolicyCellStats,
    cell_key,
    evaluate_policy,
)

__all__ = [
    "ObjectSpan",
    "PlacementPolicy",
    "PolicyContext",
    "POLICIES",
    "available_policies",
    "create_policy",
    "register_policy",
    "NoMigration",
    "StaticOracle",
    "ThresholdMigration",
    "PredictiveMigration",
    "EnduranceAware",
    "RamosMigration",
    "LINE_BYTES",
    "PageTrace",
    "PolicyCellStats",
    "cell_key",
    "evaluate_policy",
]
