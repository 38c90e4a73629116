"""Discrete-time quantum random walks on the integer line.

Exact simulation of coin-walker walks under prompt, global, and delayed
coin-tracing schemes, the doubly stochastic kernels that drive their site
distributions, and entropy/majorization/moment analyses.

The package namespace holds the entry points of the README's quick start;
everything else is imported from its module (``coinwalk.engine``,
``coinwalk.kernels``, ``coinwalk.analysis``, ``coinwalk.laurent``,
``coinwalk.verify``).
"""

from .analysis import compare_majorization, shannon_entropy
from .engine import WalkConfig, cp_walk, global_distribution
from .kernels import kernel_walk, pseudo_memory_reconstruct, quantum_kernel

__version__ = "0.1.0"

__all__ = [
    "WalkConfig",
    "compare_majorization",
    "cp_walk",
    "global_distribution",
    "kernel_walk",
    "pseudo_memory_reconstruct",
    "quantum_kernel",
    "shannon_entropy",
]
