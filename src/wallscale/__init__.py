"""Scaling-law analysis of mean-velocity profiles in wall-bounded
turbulent shear flows."""

from .diagnostics import (COLLAPSED, SHIFTED_ABOVE, SHIFTED_BELOW,
                          ReynoldsDiagnostics, UniversalSeries,
                          build_universal_series, classify_shift,
                          combine_reynolds, ln_re1_from_prefactor,
                          ln_re2_from_exponent, psi_transform)
from .errors import (DomainError, FitError, InputOutputError, ParseError,
                     PipelineError, ValidationError, WallscaleError)
from .fitting import (BrokenLineFit, PowerLawSegment, fit_broken_line,
                      fit_power_law, significant_break)
from .profiles import (ProfileMetadata, VelocityProfile, load_profile,
                       save_profile, select_intermediate)
from .report import (AnalysisBundle, AnalysisReport, AnalyzeOptions, analyze,
                     analyze_profile, batch, emit_plotdata, format_table,
                     report_from_text, report_to_text)
from .scaling import (EnvelopePoint, LogLawParams, alpha_of_ln_re,
                      envelope_at, envelope_line_fit, fit_log_law,
                      log_law_phi, prefactor_of_ln_re, scaling_law_phi)
from .synthetic import SynthSpec, generate, generate_ensemble, load_synth_spec

__version__ = "0.1.0"
