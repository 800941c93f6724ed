"""Synchronization energy analysis of power system Park-vector series.

The package computes a scalar time series, the synchronization energy,
from voltage and current Park vectors at a device port.  It decays to
zero exactly when the device settles into synchronized stationary
operation, stays bounded for sustained oscillations, and diverges on
loss of synchronism.  Two independent computation routes are provided
(a complex-frequency decomposition and a direct Teager-energy estimate
on active/reactive power), plus a swing-equation test system, a PLL
frequency estimator, a verdict classifier, and a scenario CLI.
"""

from .signals import (
    EPS_MAG,
    CFSeries,
    ParkSeries,
    TimeGrid,
    complex_frequency,
    complex_power,
    differentiate,
    polar_decompose,
    unwrap_phase,
)
from .energy import (
    EDGE_WIDTH,
    conditional_variance,
    teo_complex,
    teo_real,
)
from .metric import (
    ClassifierPolicy,
    SESeries,
    SyncStatus,
    SyncVerdict,
    classify_sync,
    normalized_se,
    se_from_cf,
    se_numeric,
)
from .pll import PllParams, pll_run
from .simulator import (
    DELTA_CAP,
    FaultSchedule,
    SimResult,
    SmibEigenvalues,
    SmibParams,
    SyntheticSpec,
    equilibrium_angle,
    smib_eigenvalues,
    smib_simulate,
    swing_energy,
    synthetic_signal,
)
from .pipeline import AnalysisResult, IdentityReport, analyze, identity_gap
from .config import (
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    SweepConfig,
    load_scenario,
    load_sweep,
    parse_scenario,
    parse_sweep,
)
from .runner import (
    ScenarioRun,
    VerifyReport,
    execute_scenario,
    read_series_csv,
    run_scenario,
    run_sweep,
    verify_scenario,
    write_series_csv,
)

__version__ = "0.1.0"
