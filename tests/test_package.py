"""The package's top-level namespace."""

import os
import re
import subprocess
import sys
from pathlib import Path

import spdckit
from spdckit import optimizer

# Every name the top level exported before it was derived from the
# submodules' __all__, less those removed because no pipeline stage, CLI
# command, oracle or demo called them; none may drop out by accident.
PINNED_NAMES = [
    "BuiltConfig",
    "C_LIGHT",
    "ConfigError",
    "CorrelationScale",
    "CorrelationTrace",
    "CrystalSpec",
    "EPS0",
    "EfficiencyReport",
    "FocusParams",
    "HBAR",
    "LorentzianFilter",
    "MaterialParseError",
    "MaterialRecord",
    "ModeSumError",
    "OpticalWave",
    "OptimizationResult",
    "OracleReport",
    "OverlapBundle",
    "OverlapResult",
    "ParsevalSum",
    "QuadratureError",
    "QuadratureResult",
    "RunConfig",
    "SourceReport",
    "SweepAxis",
    "SweepRow",
    "TabulatedFilter",
    "Unfiltered",
    "UpsilonResult",
    "WaveTriple",
    "__version__",
    "build",
    "builtin_db",
    "compute_overlaps",
    "conditional_efficiency",
    "correlation_amplitude_sq",
    "correlation_shape",
    "default_tau_grid",
    "derive_focus_params",
    "evaluate_source",
    "focusing_objective",
    "from_si",
    "gamma_eff_pair",
    "gamma_eff_single",
    "get_material",
    "i_dfg_sq",
    "i_sfg_direct3d",
    "i_sfg_gaussian",
    "index_at",
    "integrate",
    "ling_comparator",
    "load_and_build",
    "load_config",
    "load_filter_table",
    "load_material_db",
    "optimize_focus",
    "pair_rate",
    "parse_config",
    "q_apg",
    "q_dfg",
    "q_sfg",
    "q_shg",
    "run_all_oracles",
    "singles_rate",
    "sweep",
    "to_si",
    "upsilon",
]


def test_top_level_names_stay_exported():
    missing = [name for name in PINNED_NAMES if name not in spdckit.__all__]
    assert missing == []


def test_top_level_all_resolves_without_duplicates():
    assert len(set(spdckit.__all__)) == len(spdckit.__all__)
    for name in spdckit.__all__:
        assert getattr(spdckit, name) is not None


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal adds about 0.7 s to the import, more than the package
    # itself costs; the chirp-z correlation is written on scipy.fft instead.
    # scipy.optimize and scipy.integrate add 0.2-0.4 s together: the focus
    # optimizer has its own simplex, and only the i_sfg_direct3d oracle
    # imports scipy.integrate, when it runs.
    src = str(Path(spdckit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    heavy = ("scipy.signal", "scipy.optimize", "scipy.integrate")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, spdckit; print([m for m in {heavy!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_reaches_the_rate_pipeline_only_through_the_runner():
    # quantum._evaluate holds the one order of the rate steps. A sweep that
    # named one of its stages would be a second copy of that sequence.
    source = Path(optimizer.__file__).read_text(encoding="utf-8")
    stages = ("_linewidths", "_overlaps", "_efficiencies", "_heralding", "_rate_factors", "_rates")
    assert [stage for stage in stages if re.search(rf"\b{stage}\b", source)] == []
    assert "quantum._evaluate(" in source
