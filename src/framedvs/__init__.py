"""Frame-based inter-task DVS scheduling toolkit.

Builds discrete-frequency step-function strategies, verifies them with a
sound schedulability check (exact on strategies that stay at or above
the limit past each task's reachable start times; it may reject a
strategy that dips below the limit only where no run starts), and simulates expedient
frame execution to compare the energy of round-up versus closest
discretizations of continuous speed rules.

The package exports exactly what each module's ``__all__`` lists.
"""
from . import core, oracle, schedulability, simulator, strategies, workload
from .core import *  # noqa: F401,F403
from .workload import *  # noqa: F401,F403
from .schedulability import *  # noqa: F401,F403
from .strategies import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, workload, schedulability, strategies, simulator, oracle)
    for name in module.__all__
]
