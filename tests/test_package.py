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
# command, oracle or demo called them, and the truncated mode sum's
# i_dfg_sq, ParsevalSum and ModeSumError, which the kernel of modebasis
# replaced; none may drop out by accident.
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
    "OpticalWave",
    "OptimizationResult",
    "OracleReport",
    "OverlapBundle",
    "OverlapResult",
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
    # optimizer takes its own damped Newton steps and the direct 3D overlap
    # oracle runs on the package's own quadrature. No command loads them
    # either (below).
    heavy = ("scipy.signal", "scipy.optimize", "scipy.integrate")
    assert _loaded_after("import spdckit", heavy) == []


# Each of these adds megabytes and tenths of a second to a command that
# loads it: scipy.integrate pulls in scipy.optimize, scipy.sparse and
# scipy.spatial, and scipy's Legendre roots pull in scipy.linalg.
HEAVY_SCIPY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.signal")


def _loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Those of modules that a fresh interpreter has loaded after running code."""
    src = str(Path(spdckit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"import sys\n{code}\nprint(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_commands_leave_heavy_scipy_modules_unloaded():
    tabulated = Path(__file__).resolve().parent / "golden" / "tabulated.cfg"
    code = f"""
import contextlib, io
from importlib import resources
from spdckit.cli import main
bundled = str(resources.files("spdckit").joinpath("data/ppktp_800_typeII.cfg"))
commands = [["validate"], ["optimize", "--rk", "0.04"], ["optimize", "--config", bundled]] + [
    [*cmd, "--config", config]
    for config in (bundled, {str(tabulated)!r})
    for cmd in (
        ["singles", "--basis-order", "120"],
        ["sweep", "--sweep", "kappa=-5:-1:5"],
        ["correlation", "--points", "401"],
    )
]
for cmd in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd) == 0, cmd
"""
    assert _loaded_after(code, HEAVY_SCIPY) == []


def test_sweep_reaches_the_rate_pipeline_only_through_the_runner():
    # quantum._evaluate holds the one order of the rate steps. A sweep that
    # named one of its stages would be a second copy of that sequence.
    source = Path(optimizer.__file__).read_text(encoding="utf-8")
    stages = ("_linewidths", "_overlaps", "_efficiencies", "_heralding", "_rate_factors", "_rates")
    assert [stage for stage in stages if re.search(rf"\b{stage}\b", source)] == []
    assert "quantum._evaluate(" in source
