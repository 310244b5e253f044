"""Quantum substrate: gates, circuit IR, statevector simulation (local and
distributed cache-blocked), pluggable evolution backends (see
``src/repro/quantum/README.md``), Ising Hamiltonians."""

from repro.quantum.backend import (
    FusedBackend,
    NumpyBackend,
    ScratchPool,
    StatevectorBackend,
    available_backends,
    resolve_backend,
    shared_pool,
)
from repro.quantum.circuit import Circuit, Instruction, ParamRef
from repro.quantum.distributed import CommStats, DistributedStatevector, MachineModel
from repro.quantum.gates import GATE_SET, gate_matrix, is_unitary
from repro.quantum.noise import (
    DephasingChannel,
    DepolarizingChannel,
    NoiseModel,
    ReadoutError,
    mitigate_readout,
    noisy_expectation,
    noisy_qaoa_statevector,
)
from repro.quantum.pauli import IsingHamiltonian
from repro.quantum.simulator import (
    DEFAULT_SHOTS,
    SimulationResult,
    StatevectorSimulator,
    run_qaoa_reference,
)
from repro.quantum.statevector import (
    apply_diagonal,
    apply_gate,
    apply_one_qubit,
    basis_state,
    expectation_diagonal,
    expectation_diagonal_batch,
    fidelity,
    n_qubits_for_dim,
    plus_state,
    probabilities,
    sample_counts,
    top_amplitudes,
    zero_state,
)

__all__ = [
    "StatevectorBackend",
    "NumpyBackend",
    "FusedBackend",
    "ScratchPool",
    "available_backends",
    "resolve_backend",
    "shared_pool",
    "Circuit",
    "Instruction",
    "ParamRef",
    "GATE_SET",
    "gate_matrix",
    "is_unitary",
    "IsingHamiltonian",
    "DEFAULT_SHOTS",
    "SimulationResult",
    "StatevectorSimulator",
    "run_qaoa_reference",
    "CommStats",
    "DistributedStatevector",
    "MachineModel",
    "n_qubits_for_dim",
    "zero_state",
    "plus_state",
    "basis_state",
    "apply_gate",
    "apply_one_qubit",
    "apply_diagonal",
    "probabilities",
    "sample_counts",
    "top_amplitudes",
    "expectation_diagonal",
    "expectation_diagonal_batch",
    "fidelity",
    "DepolarizingChannel",
    "DephasingChannel",
    "NoiseModel",
    "ReadoutError",
    "noisy_qaoa_statevector",
    "noisy_expectation",
    "mitigate_readout",
]
