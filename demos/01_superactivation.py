"""Superactivation of Bell nonlocality with Fibonacci anyons.

A single pair of tau anyons fused to the vacuum is entangled (nonzero
entanglement entropy) yet admits a local model: the CHSH combination
cannot leave the classical range.  The same is true for two joint copies.
With three joint copies, collective measurements push CHSH to about
2.63286, past the classical bound of 2.  This script walks through that
story end to end.
"""

import math

import fibanyon as fa
from fibanyon import oracle

tau_pair = fa.new_schmidt_state({"tau": [1.0]})

print("single tau pair, total charge vacuum")
print(f"  entanglement entropy (AEE): {fa.measure_report(tau_pair).aee:.10f}  (= log2 phi)")
print(f"  class: {fa.classify(tau_pair).name}  (charge entanglement only)")
print()


def certificate(n: int) -> str:
    """Closed-form separable certificate, or its refusal, next to the dense Omega gap."""
    terms = fa.local_terms(tau_pair, copies=n)
    gap = oracle.certificate_gap(fa.n_copy(tau_pair, n))
    if terms is None:
        return f"refused (a joint sector has Schmidt rank >= 2), dense gap {gap:.2e}"
    mixture = " + ".join(f"{p:.6f} [{c.value}]" for p, c in terms)
    return f"separable, {mixture}, dense gap {gap:.2e}"


for n in (1, 2):
    result = fa.optimize_chsh(tau_pair, copies=n)
    print(f"{n} copy(ies): best CHSH = {result.value:.6f}  [{result.verdict}]")
    print(f"  certificate: {certificate(n)}")
print()

result = fa.optimize_chsh(tau_pair, copies=3)
target = (4.0 * math.sqrt(2.0) * fa.PHI + 2.0) / fa.PHI**3
print(f"3 copies: best CHSH = {result.value:.6f}  [{result.verdict}]")
print(f"  analytic optimum (4*sqrt(2)*phi + 2)/phi^3 = {target:.6f}")
print(f"  optimal angles (radians): {[round(a, 6) for a in result.angles]}")
print(f"  certificate: {certificate(3)}")
print()
print("Nonlocality was activated by measuring copies jointly: the conventional")
print("entanglement of the 3-copy state is positive, while for 1 and 2 copies")
print("it vanishes and the state stays local.")
