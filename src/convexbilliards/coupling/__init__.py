"""Coupling constructions for boundary chains and continuous processes."""

from .base import AttemptRecord, CouplingOutcome
from .chains import BatchChainResult, couple_chains, couple_chains_batch
from .process import BatchCouplingResult
from .process_convex import couple_process_convex, couple_process_convex_batch
from .process_disc import couple_process_disc, couple_process_disc_batch

__all__ = [
    "AttemptRecord",
    "BatchChainResult",
    "BatchCouplingResult",
    "CouplingOutcome",
    "couple_chains",
    "couple_chains_batch",
    "couple_process_convex",
    "couple_process_convex_batch",
    "couple_process_disc",
    "couple_process_disc_batch",
]
