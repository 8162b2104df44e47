"""Register-allocator backend names.

Callers pick a backend per call with an ``engine`` argument
(``"chaitin"`` by default):

* ``chaitin`` — the Chaitin-Briggs coloring allocator
  (:mod:`repro.regalloc.chaitin_briggs`), the paper's baseline.
* ``ssa`` — the SSA-based allocator (:mod:`repro.regalloc.ssa`) with
  load/store-range-splitting spill code (one reload per using block).
* ``ssa-everywhere`` — the same allocator with spill-everywhere spill
  code (a fresh reload before every use).
"""

from __future__ import annotations

REGALLOC_ENGINES = ("chaitin", "ssa", "ssa-everywhere")


def spill_mode_for(engine: str) -> str:
    """The SSA spill-code variant an engine name selects."""
    if engine not in REGALLOC_ENGINES:
        raise ValueError(f"unknown regalloc engine {engine!r}; "
                         f"expected one of {REGALLOC_ENGINES}")
    return "everywhere" if engine == "ssa-everywhere" else "split"
