"""Three classes of pure anyonic states and what CHSH sees in each.

Type A states carry no entanglement at all.  Type B states carry only
charge entanglement: they are local, but joint copies eventually violate
CHSH.  Type C states have positive conventional entanglement and violate
CHSH outright; the violation is certified by a closed-form bound on the
2-plane spanned by two same-sector Schmidt coefficients.  The optimizer
reports that bound, and its witness observables reproduce it through the
expectation machinery.
"""

import numpy as np

import fibanyon as fa

examples = {
    "product state |1>|1>": fa.new_schmidt_state({"1": [1.0]}),
    "single tau pair": fa.new_schmidt_state({"tau": [1.0]}),
    "vacuum-sector Bell pair": fa.new_schmidt_state({"1": [0.5, 0.5]}),
    "lopsided two-sector state": fa.new_schmidt_state({"1": [0.55, 0.15], "tau": [0.3]}),
}

for name, state in examples.items():
    report = fa.measure_report(state)
    kind = fa.classify(state)
    best = fa.optimize_chsh(state)
    print(f"{name}")
    print(
        f"  AEE={report.aee:.6f}  AREE={report.aree:.6f}"
        f"  ACE={report.ace:.6f}  CE={report.ce:.6f}"
    )
    print(f"  class: {kind.name}, best CHSH {best.value:.6f} [{best.verdict}]")
    print()

print("closed-form plane bound vs the optimizer's witness, random states:")
rng = np.random.default_rng(2024)
for _ in range(5):
    state = fa.random_schmidt_state(rng, require_rank2=True)
    best_bound = 0.0
    for c in state.charges:
        if state.rank(c) >= 2:
            l1, l2 = (float(x) for x in state.coefficients(c)[:2])
            bound, _ = fa.type_c_bound(l1, l2)
            best_bound = max(best_bound, bound)
    found = fa.chsh_value(state, *fa.optimize_chsh(state).witness())
    print(f"  bound {best_bound:.6f}  <=  witness {found:.6f}")

print()
print(f"quantum ceiling: 2*sqrt(2) = {fa.TSIRELSON:.10f}; no draw ever exceeds it.")
