"""entmac: entanglement-assisted medium access, simulated end to end.

Implements hyperdense coding (two parties sharing one classical slot and a
Bell pair per slot, 2.5 delivered bits per slot on average) next to its two
reference protocols, superdense coding (2 bits per use, deterministic) and
slotted-Aloha (0.5 bits per slot at the M=2 optimum), over a small two-qubit
statevector engine. Analytic results come from exact enumeration; empirical
ones from seeded, reproducible Monte Carlo with interchangeable pure-Python
and compiled kernels.
"""

__version__ = "0.1.0"
