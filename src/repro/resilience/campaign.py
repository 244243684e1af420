"""Randomized fault campaigns across the instrumented execution engines.

A campaign injects seeded random faults (:class:`~repro.resilience.
inject.FaultSpec`) into Keccak runs on the **stepped** and
**predecoded** engines and classifies every outcome:

``detected``
    A :class:`~repro.sim.exceptions.SimulationError` escaped the run
    *with* structured pc/cycle context.
``corrupted``
    The run completed but the final state differs from the golden
    :func:`~repro.keccak.permutation.keccak_f1600` — caught by the
    verification the harness always performs, so not silent.
``masked``
    The run completed and the output is still correct (the fault hit
    dead state, x0, unread memory, …).

Anything else is a **silent divergence** and fails the campaign:

* a detected fault whose exception carries no pc/cycle context;
* a Python-level crash that is not a :class:`SimulationError`;
* a stepped trial whose outcome (classification, exception type, fault
  pc, retired instructions, cycles, or final state) differs from the
  same fault replayed on the predecoded engine.

The cross-replay is the load-bearing check: it turns "both engines stop
at the same instruction with the same counters" into a property
verified under thousands of randomized faults.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..keccak.permutation import keccak_f1600
from ..keccak.state import KeccakState
from ..programs.base import KeccakProgram
from ..programs.factory import build_program
from ..sim.exceptions import (
    IllegalInstructionError,
    InjectedFaultError,
    MemoryAccessError,
    SimulationError,
)
from ..sim.processor import SIMDProcessor
from .inject import FaultInjector, FaultSpec
from .selfcheck import _place_states, _read_states

#: Execution engines a campaign exercises.
MODES = ("stepped", "predecoded")

#: Program variants (ELEN, LMUL) the campaign draws from.
VARIANTS: Dict[str, Tuple[int, int]] = {
    "64-lmul1": (64, 1),
    "64-lmul8": (64, 8),
    "32-lmul8": (32, 8),
}

#: Ample execution budget: a corrupted branch may loop, and the budget
#: turning that into ExecutionLimitExceeded *is* the detection.
_MAX_INSTRUCTIONS = 20_000

_RAISE_EXCEPTIONS = (InjectedFaultError, MemoryAccessError,
                     IllegalInstructionError)


@dataclass(frozen=True)
class FaultTrial:
    """One campaign trial: a fault, an engine, a program variant."""

    index: int
    variant: str
    mode: str
    spec: FaultSpec
    state_seed: int


@dataclass
class TrialResult:
    """Outcome of one trial (plus its reference replay, when taken)."""

    trial: FaultTrial
    classification: str
    context: Dict[str, Any] = field(default_factory=dict)
    detail: str = ""
    silent: bool = False


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    seed: int
    results: List[TrialResult]

    @property
    def counts(self) -> Counter:
        return Counter(r.classification for r in self.results)

    @property
    def silent_divergences(self) -> List[TrialResult]:
        return [r for r in self.results if r.silent]

    @property
    def zero_silent(self) -> bool:
        return not self.silent_divergences

    def summary(self) -> str:
        counts = self.counts
        lines = [
            f"fault campaign: {len(self.results)} fault(s), seed {self.seed}",
            f"  detected:  {counts.get('detected', 0):6d}  "
            "(structured exception with pc/cycle context)",
            f"  corrupted: {counts.get('corrupted', 0):6d}  "
            "(wrong output, caught by golden-model verification)",
            f"  masked:    {counts.get('masked', 0):6d}  "
            "(output still correct)",
            f"  SILENT:    {len(self.silent_divergences):6d}",
        ]
        for result in self.silent_divergences[:10]:
            lines.append(f"    #{result.trial.index} "
                         f"[{result.trial.variant}/{result.trial.mode}] "
                         f"{result.trial.spec.describe()}: {result.detail}")
        return "\n".join(lines)


@dataclass
class _RunOutcome:
    """Raw observables of one faulted run, for cross-engine comparison."""

    exception: Optional[str]
    pc: Optional[int]
    instructions: int
    cycles: int
    states: Optional[List[KeccakState]]
    context: Dict[str, Any]


def _mode_processor(program: KeccakProgram, mode: str) -> SIMDProcessor:
    if mode == "stepped":
        return SIMDProcessor(elen=program.elen, elenum=program.elenum,
                             predecode=False)
    if mode == "predecoded":
        return SIMDProcessor(elen=program.elen, elenum=program.elenum,
                             predecode=True)
    raise ValueError(f"unknown mode: {mode!r}")


def _execute_faulted(program: KeccakProgram, mode: str, spec: FaultSpec,
                     states: Sequence[KeccakState]) -> _RunOutcome:
    proc = _mode_processor(program, mode)
    _place_states(proc, program, states)
    exception: Optional[SimulationError] = None
    with FaultInjector(proc) as injector:
        injector.arm(spec)
        try:
            proc.run(max_instructions=_MAX_INSTRUCTIONS)
        except SimulationError as exc:
            exception = exc
    if exception is not None:
        return _RunOutcome(
            exception=type(exception).__name__,
            pc=exception.pc,
            instructions=proc.stats.instructions,
            cycles=proc.stats.cycles,
            states=None,
            context=exception.context,
        )
    return _RunOutcome(
        exception=None,
        pc=None,
        instructions=proc.stats.instructions,
        cycles=proc.stats.cycles,
        states=_read_states(proc, program, len(states)),
        context={},
    )


def _compare_outcomes(primary: _RunOutcome,
                      reference: _RunOutcome) -> Optional[str]:
    """Why two engines disagree on the same fault (None if they agree)."""
    if primary.exception != reference.exception:
        return (f"exception {primary.exception} != "
                f"reference {reference.exception}")
    if primary.pc != reference.pc:
        return (f"fault pc {primary.pc} != reference {reference.pc}")
    if primary.instructions != reference.instructions:
        return (f"retired {primary.instructions} != "
                f"reference {reference.instructions}")
    if primary.cycles != reference.cycles:
        return f"cycles {primary.cycles} != reference {reference.cycles}"
    if primary.states != reference.states:
        return "final states differ between engines"
    return None


def _random_spec(rng: random.Random, program: KeccakProgram,
                 assembled_pcs: Sequence[int], vlen_bits: int) -> FaultSpec:
    kind = rng.choice(("vreg-flip", "sreg-flip", "mem-flip",
                       "word-corrupt", "raise"))
    pc = rng.choice(assembled_pcs)
    occurrence = rng.randint(1, 3)
    if kind == "vreg-flip":
        return FaultSpec(kind, pc, occurrence, reg=rng.randrange(32),
                         bit=rng.randrange(vlen_bits))
    if kind == "sreg-flip":
        return FaultSpec(kind, pc, occurrence, reg=rng.randrange(32),
                         bit=rng.randrange(32))
    if kind == "mem-flip":
        base = program.state_base or 0
        return FaultSpec(kind, pc, occurrence,
                         address=base + rng.randrange(4096),
                         bit=rng.randrange(8))
    if kind == "word-corrupt":
        return FaultSpec(kind, pc, occurrence, bit=rng.randrange(32))
    return FaultSpec(kind, pc, occurrence,
                     exception=rng.choice(_RAISE_EXCEPTIONS))


def run_campaign(num_faults: int = 200, seed: int = 0,
                 variants: Sequence[str] = tuple(VARIANTS),
                 modes: Sequence[str] = MODES,
                 crosscheck: bool = True) -> CampaignReport:
    """Inject ``num_faults`` seeded random faults; classify every one.

    Faults rotate over ``variants`` × ``modes``.  With ``crosscheck``
    (the default) every stepped trial is replayed on the predecoded
    engine and the outcomes must match
    exactly — classification, exception type, fault pc, retired
    instruction count, cycle counter and final states.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode: {mode!r}")
    programs: Dict[str, KeccakProgram] = {}
    pcs: Dict[str, List[int]] = {}
    for variant in variants:
        elen, lmul = VARIANTS[variant]
        program = build_program(elen, lmul, elenum=5)
        programs[variant] = program
        pcs[variant] = [inst.address
                        for inst in program.assemble().instructions]

    rng = random.Random(seed)
    results: List[TrialResult] = []
    for index in range(num_faults):
        variant = variants[index % len(variants)]
        mode = modes[(index // len(variants)) % len(modes)]
        program = programs[variant]
        spec = _random_spec(rng, program, pcs[variant],
                            program.elen * program.elenum)
        state_seed = rng.getrandbits(32)
        trial = FaultTrial(index, variant, mode, spec, state_seed)
        results.append(_run_trial(trial, program, crosscheck))
    return CampaignReport(seed=seed, results=results)


def _run_trial(trial: FaultTrial, program: KeccakProgram,
               crosscheck: bool) -> TrialResult:
    state_rng = random.Random(trial.state_seed)
    states = [KeccakState([state_rng.getrandbits(64) for _ in range(25)])]
    try:
        outcome = _execute_faulted(program, trial.mode, trial.spec, states)
    except Exception as exc:  # noqa: BLE001 - a crash is the finding
        return TrialResult(
            trial, "crash", silent=True,
            detail=f"non-simulation error {type(exc).__name__}: {exc}",
        )

    if outcome.exception is not None:
        if outcome.context.get("pc") is None \
                or outcome.context.get("cycle") is None:
            result = TrialResult(
                trial, "undiagnosed", context=outcome.context, silent=True,
                detail=f"{outcome.exception} carried no pc/cycle context",
            )
        else:
            result = TrialResult(trial, "detected", context=outcome.context)
    else:
        golden = [keccak_f1600(s) for s in states]
        if outcome.states == golden:
            result = TrialResult(trial, "masked")
        else:
            result = TrialResult(trial, "corrupted")

    if crosscheck and trial.mode != "predecoded" and not result.silent:
        try:
            reference = _execute_faulted(program, "predecoded", trial.spec,
                                         states)
        except Exception as exc:  # noqa: BLE001
            return TrialResult(
                trial, "crash", silent=True,
                detail=f"reference replay crashed: "
                       f"{type(exc).__name__}: {exc}",
            )
        mismatch = _compare_outcomes(outcome, reference)
        if mismatch is not None:
            result.silent = True
            result.detail = f"diverged from reference engine: {mismatch}"
            result.classification = "engine-divergence"
    return result
