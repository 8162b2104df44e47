"""Oracle validation (fault injection) and reducer behavior.

A differential tester that has never caught a bug proves nothing, so
each known miscompile class in :mod:`repro.difftest.faults` is injected
into compiled code and must be *detected*; the delta-debugging reducer
must then shrink a triggering program to a small, stable reproducer.
"""

import pytest

from repro.difftest import (check_source, config_lattice, generate_source,
                            iter_corpus, reduce_source, save_corpus_entry)
from repro.difftest import cli
from repro.difftest.faults import FAULTS, get_fault
from repro.difftest.runner import (DiffConfig, Divergence, FuzzReport,
                                   SeedResult, compile_config)
from repro.frontend import compile_source
from repro.ir import VerificationError, verify_program
from repro.trace import TraceRecorder, recording

BASE = DiffConfig("baseline", optimize=False, compaction=False, ccm_bytes=512)
CCM = DiffConfig("postpass", optimize=False, compaction=False, ccm_bytes=512)

#: the config whose compiled form contains the instructions each fault
#: mutates (the CCM faults need CCM traffic, so they run under postpass)
_CCM_FAULTS = ("ccm_alias", "ccm_slot_past_limit")
_FAULT_CONFIG = {name: (CCM if name in _CCM_FAULTS else BASE)
                 for name in FAULTS}


class TestFaultInjection:
    @pytest.mark.parametrize("fault_name", sorted(FAULTS))
    def test_oracle_detects_fault(self, fault_name):
        result = check_source(generate_source(0),
                              [_FAULT_CONFIG[fault_name]],
                              fault=get_fault(fault_name))
        assert result.skipped is None
        assert result.divergences, \
            f"oracle missed injected fault {fault_name}"

    def test_verifier_catches_ccm_slot_past_limit(self):
        """The static CCM bound rejects the fault without running the
        program, so it also covers code a run never executes."""
        program, machine = compile_config(compile_source(generate_source(0)),
                                          CCM)
        get_fault("ccm_slot_past_limit")(program)
        with pytest.raises(VerificationError, match="512-byte CCM"):
            verify_program(program, machine.ccm_bytes)

    def test_unfaulted_seed_is_clean(self):
        result = check_source(generate_source(0), [BASE, CCM])
        assert result.skipped is None and not result.divergences

    def test_unknown_fault_name(self):
        with pytest.raises(KeyError, match="unknown fault"):
            get_fault("nonexistent")


def _diverges_under_lt_fault(source: str) -> bool:
    try:
        result = check_source(source, [BASE], fault=get_fault("cmp_lt_to_le"))
    except Exception:
        return False
    return result.skipped is None and bool(result.divergences)


class TestReducer:
    def test_shrinks_divergent_seed_to_minimal_reproducer(self):
        source = generate_source(0)
        assert _diverges_under_lt_fault(source)
        minimized = reduce_source(source, _diverges_under_lt_fault)
        # still diverges, and is dramatically smaller
        assert _diverges_under_lt_fault(minimized)
        assert len(minimized.splitlines()) <= 10
        prog = compile_source(minimized)
        n_instr = sum(fn.instruction_count()
                      for fn in prog.functions.values())
        assert n_instr <= 25, f"reduced program still has {n_instr} instrs"
        # deterministic: the same input reduces to the same output
        assert reduce_source(source, _diverges_under_lt_fault) == minimized

    def test_rejects_uninteresting_input(self):
        with pytest.raises(ValueError, match="does not satisfy"):
            reduce_source("func main(): float {\n  return 0.0\n}\n",
                          _diverges_under_lt_fault)

    def test_simple_predicate_reduction(self):
        """Line-level sanity without the compiler in the loop."""
        source = "\n".join(f"line{i}" for i in range(32)) + "\nkeep me\n"
        result = reduce_source(source, lambda s: "keep me" in s)
        assert result == "keep me\n"


class TestSweepEngines:
    """``--seed`` and ``--reduce`` run on the sweep's simulator engine
    and allocator lattice, so a divergence found on the interpreter is
    reduced on the interpreter."""

    CONFIGS = config_lattice((64,))

    @staticmethod
    def _decode_counters(fn):
        recorder = TraceRecorder()
        with recording(recorder):
            fn()
        return {name: value for name, value in recorder.counters.items()
                if name.startswith("sim.decode.")}

    def test_check_source_and_reducer_follow_sim_engine(self):
        source = generate_source(3)
        configs = self.CONFIGS
        assert self._decode_counters(lambda: check_source(source, configs))
        assert not self._decode_counters(
            lambda: check_source(source, configs, sim_engine="interp"))
        # seed 3 is clean: the reducer evaluates its predicate once and
        # gives up, on whichever engine it was handed
        for engine, decodes in (("interp", False), ("predecode", True)):
            counters = self._decode_counters(
                lambda: cli._reduce_divergence(3, configs, engine))
            assert bool(counters) is decodes, engine

    def _spy(self, monkeypatch, diverging: int):
        """Replace the CLI's check_source: the first ``diverging`` calls
        diverge, later ones (the reducer's predicate) do not.  Returns
        the calls seen as (allocators, sim_engine)."""
        calls = []

        def check_source_spy(source, configs, **kwargs):
            calls.append(({c.allocator for c in configs},
                          kwargs.get("sim_engine")))
            divergence = Divergence(7, configs[0].name, "value", "boom")
            return SeedResult(7, len(configs),
                              [divergence] if len(calls) <= diverging
                              else [])

        monkeypatch.setattr(cli, "check_source", check_source_spy)
        return calls

    def test_cli_seed_and_reduce_pass_the_flag(self, monkeypatch, capsys):
        calls = self._spy(monkeypatch, diverging=1)
        assert cli.main(["--seed", "7", "--reduce", "--no-cache",
                         "--ccm", "64", "--allocators", "ssa",
                         "--sim-engine", "interp"]) == 1
        assert calls == [({"ssa"}, "interp")] * 2

    def test_cli_sweep_reduce_passes_the_flag(self, monkeypatch, capsys):
        calls = self._spy(monkeypatch, diverging=0)
        sweeps = []

        def run_fuzz_spy(seeds, configs, **kwargs):
            sweeps.append(kwargs.get("sim_engine"))
            return FuzzReport(seeds_run=1, divergences=[
                Divergence(7, configs[0].name, "value", "boom")])

        monkeypatch.setattr(cli, "run_fuzz", run_fuzz_spy)
        assert cli.main(["--seeds", "1", "--start", "7", "--reduce",
                         "--no-cache", "-j", "1", "--ccm", "64",
                         "--allocators", "ssa",
                         "--sim-engine", "interp"]) == 1
        assert sweeps == ["interp"]
        assert calls == [({"ssa"}, "interp")]


class TestCorpusStore:
    def test_save_and_iterate_round_trip(self, tmp_path):
        directory = str(tmp_path)
        program = "func main(): float {\n  return 1.5\n}\n"
        path = save_corpus_entry("seed 99!", program,
                                 {"seed": "99", "found": "value mismatch"},
                                 directory=directory)
        assert path.endswith("seed_99.mfl")
        entries = list(iter_corpus(directory))
        assert len(entries) == 1
        name, source, meta = entries[0]
        assert name == "seed_99"
        assert meta["seed"] == "99"
        assert meta["found"] == "value mismatch"
        assert source.endswith(program)

    def test_iterating_missing_directory_is_empty(self, tmp_path):
        assert list(iter_corpus(str(tmp_path / "nope"))) == []
