"""Geometry of anyonic entanglement: a two-leg decomposition of AREE.

The distance (in quantum-trace relative entropy) from a pure anyonic
state to the separable set splits exactly into two legs: the distance to
the state's Omega image (the charge-entanglement part, invisible to
product observables) plus the distance from the Omega image to the
separable set (the conventional part).  The closest separable state is
known in closed form; its exact directional derivative toward random
separable directions (the Daleckii-Krein derivative of the matrix log)
certifies its minimality.
"""

import numpy as np

import fibanyon as fa
from fibanyon import oracle

state = fa.new_schmidt_state({"1": [0.2, 0.1], "tau": [0.45, 0.25]})
rho = oracle.embed(state)
omega = oracle.omega_project(state)
candidate = oracle.closest_separable_candidate(state).to_operator()

leg_charge = oracle.relative_entropy(rho, omega)
leg_conventional = oracle.relative_entropy(omega, candidate)
total = oracle.relative_entropy(rho, candidate)
report = fa.measure_report(state)

print("state:", state)
print(f"  S(rho || Omega(rho))        = {leg_charge:.12f}   (ACE)")
print(f"  S(Omega(rho) || separable)  = {leg_conventional:.12f}   (CE)")
print(f"  S(rho || separable)         = {total:.12f}   (AREE)")
print(f"  legs sum - total            = {leg_charge + leg_conventional - total:.2e}")
print(f"  closed-form residual        = {report.aree - leg_charge - leg_conventional:.2e}")
print()

print("closed forms agree:")
print(f"  AREE {report.aree:.12f} = ACE {report.ace:.12f} + CE {report.ce:.12f}")
print()

rng = np.random.default_rng(11)
gradients = oracle.minimality_gradient(
    state, oracle.random_separable_directions(rng, state.ranks, 60)
)
print("minimality of the closest separable state (gradient must be >= 0):")
print(f"  min directional derivative over 60 random directions: {gradients.min():.3e}")
print(f"  max: {gradients.max():.3e}")
