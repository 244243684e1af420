"""Fault injection and self-verifying execution.

The paper validates its custom Keccak vector instructions against a
golden software model before trusting the cycle numbers; this package
does the same adversarially, at scale:

* :mod:`~repro.resilience.inject` — plant bit flips (vector regfile,
  scalar regs, memory), decoded-word corruption, or forced
  :class:`~repro.sim.exceptions.SimulationError` at a chosen
  (pc, occurrence), on the stepped and predecoded execution engines.
* :mod:`~repro.resilience.selfcheck` — differential oracles: lockstep
  predecoded-vs-naive comparison with first-divergence (pc, register,
  lane) reporting, predecoded-vs-stepped whole-run checks against the
  golden Keccak model, and end-to-end digest cross-checks against
  ``hashlib``.
* :mod:`~repro.resilience.campaign` — seeded randomized fault campaigns
  that classify every fault as detected / corrupted / masked and fail on
  any silent divergence between engines (``repro faultcampaign``).
"""

from .campaign import (
    CampaignReport,
    FaultTrial,
    TrialResult,
    run_campaign,
)
from .inject import FAULT_KINDS, FaultInjector, FaultSpec, program_pcs
from .selfcheck import (
    Divergence,
    SelfCheckReport,
    crosscheck_digest,
    lockstep_verify,
    selfcheck_run,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "program_pcs",
    "Divergence",
    "SelfCheckReport",
    "lockstep_verify",
    "selfcheck_run",
    "crosscheck_digest",
    "CampaignReport",
    "FaultTrial",
    "TrialResult",
    "run_campaign",
]
