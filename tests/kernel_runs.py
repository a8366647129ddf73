"""An execution for tests that call a kernel ``fn(ex, cols, n)`` directly,
with no physical plan around it."""

from __future__ import annotations

from typing import Any, Mapping

from repro.engine.physical import Execution, PhysicalOperator, _Context


def execution(
    database: Any = None,
    params: Mapping[str, Any] | None = None,
    governor: Any = None,
) -> Execution:
    """A run over *database* with *params* bound and *governor* in force."""
    return Execution(PhysicalOperator(_Context(database)), params, governor)
