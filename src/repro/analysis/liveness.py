"""Backward iterative liveness analysis over registers.

Phi semantics follow the standard convention: a phi's source is live out
of the corresponding *predecessor*, not live into the phi's own block.

The same worklist engine is reused by :mod:`repro.ccm.mem_liveness`,
which runs liveness over *spill slots* instead of registers — the
paper's key analytical move (section 3.1: "a spill location m is live at
p if there exists an execution path from p to an instruction that loads
m").

Two interchangeable engines compute the identical fixpoint:

* ``bitset`` (default) — dense masks over a per-function register
  numbering, with the set algebra replaced by integer AND/OR/ANDNOT
  (:mod:`repro.analysis.bitset`).  This is the allocation hot path.
* ``sets`` — the original Python-set implementation, retained as a
  reference oracle.  Select it with ``engine="sets"``.

The equivalence of the two engines is property-tested over the fuzz
corpus (``tests/test_bitset_oracle_fuzz.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import Function, Instruction
from .bitset import BitLiveness, DenseIndex, compute_liveness_masks
from .cfg import CFG


class _LazySetMap(dict):
    """Dict of block label -> register set, materialized per key from a
    mask map on first access.  Keeps the historical ``live_in[label]``
    API on top of the bitset engine without paying for sets nobody
    reads."""

    __slots__ = ("_masks", "_index")

    def __init__(self, masks: Dict[str, int], index: DenseIndex):
        super().__init__()
        self._masks = masks
        self._index = index

    def __missing__(self, key: str) -> Set:
        value = self._index.set_of(self._masks[key])
        self[key] = value
        return value

    # only materialized entries are visible through plain dict iteration;
    # route the container protocol through the mask map instead
    def __contains__(self, key) -> bool:
        return key in self._masks

    def __iter__(self):
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def keys(self):
        return self._masks.keys()

    def items(self):
        return ((label, self[label]) for label in self._masks)

    def values(self):
        return (self[label] for label in self._masks)

    def get(self, key, default=None):
        if key not in self._masks:
            return default
        return self[key]


class LivenessInfo:
    """Per-block live-in/live-out sets plus per-instruction queries.

    ``bits`` carries the mask-form facts
    (:class:`~repro.analysis.bitset.BitLiveness`) when the bitset engine
    computed them; mask-aware consumers (the interference builder, the
    call-crossing scan) read it directly and skip set materialization.
    """

    def __init__(self, live_in: Dict[str, Set], live_out: Dict[str, Set],
                 fn: Function, cfg: CFG,
                 bits: Optional[BitLiveness] = None):
        self.live_in = live_in
        self.live_out = live_out
        self.fn = fn
        self.cfg = cfg
        self.bits = bits

    def live_across_instructions(self, label: str):
        """Yield (index, instr, live_after) walking a block backward.

        ``live_after`` is the set of registers live immediately after the
        instruction executes — the set spill-interference is judged
        against.

        Contract: the yielded set is a *borrowed snapshot*, valid only
        until the generator is advanced, and must not be mutated by the
        caller.  (The sets engine reuses one working set across the
        walk; copy at the call site to retain a value.)
        """
        block = self.fn.block(label)
        if self.bits is not None:
            index = self.bits.index
            ids = index.ids
            live = self.bits.live_out[label]
            for idx in range(len(block.instructions) - 1, -1, -1):
                instr = block.instructions[idx]
                yield idx, instr, index.set_of(live)
                for d in instr.dsts:
                    live &= ~(1 << ids[d])
                if not instr.is_phi:
                    for s in instr.srcs:
                        live |= 1 << ids[s]
            return
        live = set(self.live_out[label])
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            yield idx, instr, live
            _step_backward(instr, live)


def _uses_and_defs(instr: Instruction) -> Tuple[List, List]:
    return list(instr.srcs), list(instr.dsts)


def _step_backward(instr: Instruction, live: Set) -> None:
    """Update ``live`` across ``instr`` in the backward direction."""
    for d in instr.dsts:
        live.discard(d)
    if instr.is_phi:
        return  # phi uses count at predecessor block ends
    for s in instr.srcs:
        live.add(s)


def compute_liveness(fn: Function, cfg: CFG = None,
                     index: Optional[DenseIndex] = None,
                     engine: str = "bitset") -> LivenessInfo:
    """Liveness for ``fn`` using the given engine."""
    cfg = cfg or CFG(fn)
    if engine == "sets":
        return _compute_liveness_sets(fn, cfg)
    if engine != "bitset":
        raise ValueError(f"unknown liveness engine {engine!r}; "
                         f"expected 'bitset' or 'sets'")
    facts = compute_liveness_masks(fn, cfg, index)
    return LivenessInfo(_LazySetMap(facts.live_in, facts.index),
                        _LazySetMap(facts.live_out, facts.index),
                        fn, cfg, bits=facts)


def _compute_liveness_sets(fn: Function, cfg: CFG) -> LivenessInfo:
    """The set-based reference oracle."""
    use: Dict[str, Set] = {}
    defs: Dict[str, Set] = {}
    phi_defs: Dict[str, Set] = {}
    phi_uses_at_pred: Dict[str, Set] = {b.label: set() for b in fn.blocks}

    for block in fn.blocks:
        u: Set = set()
        d: Set = set()
        pd: Set = set()
        for instr in block.instructions:
            if instr.is_phi:
                for src, pred in zip(instr.srcs, instr.phi_labels):
                    phi_uses_at_pred.setdefault(pred, set()).add(src)
                for dst in instr.dsts:
                    d.add(dst)
                    pd.add(dst)
                continue
            for src in instr.srcs:
                if src not in d:
                    u.add(src)
            for dst in instr.dsts:
                d.add(dst)
        use[block.label] = u
        defs[block.label] = d
        phi_defs[block.label] = pd

    live_in: Dict[str, Set] = {b.label: set() for b in fn.blocks}
    live_out: Dict[str, Set] = {b.label: set() for b in fn.blocks}

    worklist = deque(cfg.postorder())
    in_list = set(worklist)
    while worklist:
        label = worklist.popleft()
        in_list.discard(label)
        out: Set = set(phi_uses_at_pred.get(label, ()))
        for succ in cfg.succs[label]:
            # live-in of successor, minus its phi defs, plus nothing extra:
            # phi defs are live-in to the successor but the corresponding
            # liveness at this predecessor is the phi *source*, already in
            # phi_uses_at_pred.
            out |= (live_in[succ] - phi_defs[succ])
        new_in = use[label] | (out - defs[label])
        changed = out != live_out[label] or new_in != live_in[label]
        live_out[label] = out
        live_in[label] = new_in
        if changed:
            for pred in cfg.preds[label]:
                if pred not in in_list:
                    worklist.append(pred)
                    in_list.add(pred)
    return LivenessInfo(live_in, live_out, fn, cfg)


def values_live_across_calls(fn: Function, liveness: LivenessInfo = None) -> Set:
    """Registers live immediately after some CALL instruction.

    The intraprocedural post-pass CCM allocator refuses to promote spill
    slots whose value is live across a call (paper section 3.1); this is
    the register-level analog used in tests and diagnostics.
    """
    liveness = liveness or compute_liveness(fn)
    if liveness.bits is not None:
        index = liveness.bits.index
        ids = index.ids
        live_out = liveness.bits.live_out
        crossing = 0
        for block in fn.blocks:
            if not any(instr.is_call for instr in block.instructions):
                continue
            live = live_out[block.label]
            for idx in range(len(block.instructions) - 1, -1, -1):
                instr = block.instructions[idx]
                if instr.is_call:
                    crossing |= live
                for d in instr.dsts:
                    live &= ~(1 << ids[d])
                if not instr.is_phi:
                    for s in instr.srcs:
                        live |= 1 << ids[s]
        return index.set_of(crossing)
    result: Set = set()
    for block in fn.blocks:
        for _, instr, live_after in liveness.live_across_instructions(block.label):
            if instr.is_call:
                result |= live_after
    return result
