"""Map the focusing merit zeta_R |Upsilon|^2 and polish the optimum.

Coarse grid first so the ridge is visible, then the simplex optimizer.
Run from the repo root: python3 demos/focusing_scan.py
"""

import numpy as np

from spdckit.optimizer import focusing_objective, optimize_focus

R_K = 0.04  # wavenumber mismatch ratio of the 800 nm type-II source

kappas = np.linspace(-8.0, 2.0, 21)
zetas = np.geomspace(0.05, 1.0, 13)

print(f"merit zeta_R |Upsilon|^2 at R_k = {R_K}")
print("kappa\\zeta " + "  ".join(f"{z:7.3f}" for z in zetas))
best_seen = (0.0, None, None)
for kappa in kappas:
    row = []
    for zeta in zetas:
        val = focusing_objective(kappa, zeta, R_K)
        row.append(val)
        if val > best_seen[0]:
            best_seen = (val, kappa, zeta)
    print(f"{kappa:8.2f}   " + "  ".join(f"{v:7.4f}" for v in row))

print()
print(f"grid best {best_seen[0]:.4f} at kappa = {best_seen[1]:.2f}, zeta_R = {best_seen[2]:.3f}")

result = optimize_focus(R_K, restarts=2)
print(f"polished  {result.best_objective:.6f} at kappa = {result.best_kappa:.4f}, "
      f"zeta_R = {result.best_zeta_r:.5f} ({result.evaluations} evaluations)")

# The same optimum in Boyd-Kleinman language: h = 2 pi^2 * merit, and the
# tabulated tight-focus maximum is h = 1.0679 for a phase-matched beam.
h = 2.0 * np.pi**2 * optimize_focus(0.0, restarts=2).best_objective
print(f"R_k = 0 gives h = {h:.4f} against the textbook 1.0679")
