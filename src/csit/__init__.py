"""Regularized spectral differentiation by a complex-step integral transform.

The package centers on one operator: a derivative built by averaging the
imaginary part of an analytically continued signal over a small rectangle
just above the real axis.  The averaging acts as a tunable low-pass filter
on the exact spectral derivative, which is what the two bundled
applications exploit: a 1D advection solver whose spatial derivative
damps parasitic sawtooth modes, and an instantaneous-frequency estimator
that stays finite where the classical phase-rate formula divides by a
vanishing envelope.

Layout
------
``csit.grid``
    Uniform periodic grids, sampled series, FFT conventions.
``csit.special``
    The hyperbolic sine integral and friends.
``csit.continuation``
    The range rule of every spectral kernel, and the continuation
    multiplier exp(i*k*eta - k*tau) that the frequency estimator applies.
``csit.operators``
    The transform (quadrature and spectral routes), classical
    derivative operators, and the closed-form verification table.
``csit.advection``
    Forced advection on a ring with interchangeable derivative schemes.
``csit.instfreq``
    Analytic-signal construction and instantaneous-frequency estimators.
``csit.io``
    Strict CSV and run-manifest formats used by the command line.
``csit.cli``
    The ``csit`` console entry point.
"""

__version__ = "0.1.0"  # set before the submodules: cli and io read it

from .advection import (
    AdvectionConfig,
    DivergenceError,
    SourceTimeFunction,
    WavefieldSnapshot,
    default_csit_params,
    dispersion_csit,
    dispersion_fd,
    parasitic_energy,
    pulse_centroid,
    pulse_speed,
    reference_config,
    run_advection,
)
from .grid import Series, Spectrum, UniformGrid, fft_forward, fft_inverse, wavenumbers
from .instfreq import (
    AnalyticTrace,
    FrequencyEstimate,
    analytic_signal,
    chirp,
    default_if_params,
    edge_mask,
    if_classical,
    if_csit,
    if_damped,
)
from .io import CsvFormatError, RunManifest, read_series_csv, write_table_csv
from .operators import (
    CsitParams,
    Table1Report,
    Table1Row,
    complex_step_derivative,
    csit_quadrature,
    csit_quadrature_direct,
    csit_spectral,
    csit_symbol,
    fd_centered,
    hilbert_fft,
    pseudospectral_derivative,
    table1_verify,
)
from .special import shi, si

__all__ = [
    "AdvectionConfig",
    "AnalyticTrace",
    "CsitParams",
    "CsvFormatError",
    "DivergenceError",
    "FrequencyEstimate",
    "RunManifest",
    "Series",
    "SourceTimeFunction",
    "Spectrum",
    "Table1Report",
    "Table1Row",
    "UniformGrid",
    "WavefieldSnapshot",
    "analytic_signal",
    "chirp",
    "complex_step_derivative",
    "csit_quadrature",
    "csit_quadrature_direct",
    "csit_spectral",
    "csit_symbol",
    "default_csit_params",
    "default_if_params",
    "dispersion_csit",
    "dispersion_fd",
    "edge_mask",
    "fd_centered",
    "fft_forward",
    "fft_inverse",
    "hilbert_fft",
    "if_classical",
    "if_csit",
    "if_damped",
    "parasitic_energy",
    "pulse_centroid",
    "pulse_speed",
    "pseudospectral_derivative",
    "read_series_csv",
    "reference_config",
    "run_advection",
    "shi",
    "si",
    "table1_verify",
    "wavenumbers",
    "write_table_csv",
    "__version__",
]
