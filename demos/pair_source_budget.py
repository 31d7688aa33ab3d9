"""Rate budget of the bundled 800 nm type-II source.

Walks the whole chain once: config -> overlaps -> conversion efficiency
-> pair and singles rates -> heralding, then shows how the numbers move
with pump power and filter width.
Run from the repo root: python3 demos/pair_source_budget.py
"""

from importlib import resources

from spdckit.config import load_and_build
from spdckit.filters import LorentzianFilter
from spdckit.quantities import from_si, to_si
from spdckit.quantum import evaluate_source

cfg_path = resources.files("spdckit").joinpath("data/ppktp_800_typeII.cfg")
built = load_and_build(str(cfg_path))

print(f"crystal: {built.crystal.material_name}, L = {built.crystal.length*1e3:.1f} mm, "
      f"poling = {built.crystal.poling_period*1e6:.4f} um")
print(f"focus:   kappa = {built.fp.kappa:.3f}, zeta_R = {built.fp.zeta_r}, "
      f"R_k = {built.fp.r_k:.5f}")

report = evaluate_source(
    built.waves, built.crystal, built.fp,
    built.filter_s, built.filter_i, built.pump_power,
)
print()
print(f"Q_SFG        = {report.efficiencies.q_conversion:.3e} 1/W")
print(f"Gamma_eff    = {from_si(report.gamma_eff, 'MHz'):.3f} MHz (angular {report.gamma_eff:.4e} rad/s)")
print(f"pairs  W2    = {report.pair_rate_w2:.3f} 1/s at {built.pump_power*1e3:.1f} mW")
print(f"singles W1   = {report.singles_rate_signal:.3f} (signal), "
      f"{report.singles_rate_idler:.3f} (idler) 1/s")
print(f"heralding    = {report.eta_signal:.3f} (signal), {report.eta_idler:.3f} (idler)")

# Pair rate is linear in pump power and in the joint filter width; heralding
# is power independent but improves as the heralding arm filter narrows.
print()
print("P [mW]  W2 [1/s]  eta_s")
for p_mw in (0.2, 1.0, 5.0):
    rep = evaluate_source(
        built.waves, built.crystal, built.fp,
        built.filter_s, built.filter_i, p_mw * 1e-3,
    )
    print(f"{p_mw:6.1f}  {rep.pair_rate_w2:8.3f}  {rep.eta_signal:.3f}")

print()
print("Gamma_i [MHz]  W2 [1/s]  eta_s   eta_i")
for g_mhz in (0.5, 2.0, 8.0):
    f_i = LorentzianFilter(to_si(g_mhz, "MHz"))
    rep = evaluate_source(
        built.waves, built.crystal, built.fp,
        built.filter_s, f_i, built.pump_power,
    )
    print(f"{g_mhz:13.1f}  {rep.pair_rate_w2:8.3f}  {rep.eta_signal:.3f}   {rep.eta_idler:.3f}")
