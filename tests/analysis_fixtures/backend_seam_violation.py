# Fixture: a module outside repro.quantum.backend importing raw kernels.
# repro: module=repro.qaoa.fixture_seam
from repro.quantum.statevector import apply_rx_layer  # expect: backend-seam
from repro.quantum.statevector import walsh_hadamard_batch  # expect: backend-seam
from repro.quantum.statevector import apply_phases_batch  # expect: backend-seam


def evolve(state, beta):
    apply_rx_layer(state, beta)
    walsh_hadamard_batch(state)
    apply_phases_batch(state, None)
