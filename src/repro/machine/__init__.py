"""Abstract target machine: configuration, simulator, and cache models."""

from .cache import CacheConfig, CacheStats, DataCache
from .simulator import (OutOfFuel, RunResult, RunStats, SimulationError,
                        Simulator, POISON)
from .target import (DEFAULT_MACHINE, MachineConfig, PAPER_MACHINE_1024,
                     PAPER_MACHINE_512)

__all__ = [
    "CacheConfig", "CacheStats", "DataCache", "OutOfFuel", "RunResult",
    "RunStats", "SimulationError", "Simulator", "POISON",
    "DEFAULT_MACHINE", "MachineConfig", "PAPER_MACHINE_1024",
    "PAPER_MACHINE_512",
]
