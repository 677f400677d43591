"""Numerical laboratory for infrared-cutoff Nelson-type fiber Hamiltonians.

Truncated-Fock-space ground states, coherent (Weyl) dressing, analytic
momentum derivatives of the energy and the ground state, photon wavefunction
extraction, and multiscale infrared sweeps with measured bounds.

The package root imports nothing, so that importing `nelsonlab.cli` leaves
numpy unloaded until a command has applied the BLAS thread cap.
"""

__version__ = "0.1.0"
