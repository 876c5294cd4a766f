"""Deterministic multi-agent school simulation.

Agents act through a dual experience/knowledge memory with short-term and
long-term tiers; a nine-configuration ablation matrix toggles the memory
components, and runs are scored against ground-truth transcripts with an
LCS-based overlap metric at 5% checkpoints.
"""

__version__ = "0.1.0"

from .config import BaseStructure, SimulationConfig, config_by_id, config_matrix
from ._kernels import lcs_length
from .embedding import HashedBagEmbedder
from .evaluation import CheckpointReport, RougeScore, checkpoints, rouge_l
from .llm import ChatMessage, GenParams, Provider, Request, ScriptedProvider
from .memory import MemoryKind, MemoryRecord, MemoryStore, MemoryUpdate, RetrievalPolicy
from .simulation import (
    InteractionLog,
    InteractionLogEntry,
    ReplayBundle,
    Simulation,
    parse_memory_update,
    run_simulation,
)

__all__ = [
    "BaseStructure",
    "ChatMessage",
    "CheckpointReport",
    "GenParams",
    "HashedBagEmbedder",
    "InteractionLog",
    "InteractionLogEntry",
    "MemoryKind",
    "MemoryRecord",
    "MemoryStore",
    "MemoryUpdate",
    "Provider",
    "ReplayBundle",
    "Request",
    "RetrievalPolicy",
    "RougeScore",
    "ScriptedProvider",
    "Simulation",
    "SimulationConfig",
    "checkpoints",
    "config_by_id",
    "config_matrix",
    "lcs_length",
    "parse_memory_update",
    "rouge_l",
    "run_simulation",
]
