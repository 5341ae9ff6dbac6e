"""Numerics for infinitely divisible Stieltjes moment sequences.

Submodules
----------
measures    atomic/density measures, integrals, moments, Mellin, convolutions
quadrature  nested double-exponential integration (tanh-sinh, exp-sinh)
hankel      Hankel PSD tests, Carleman diagnostics, power transforms
bernstein   Bernstein-function catalog, kappa/sigma measures, psi
semigroups  Gamma/Beta/q-log-normal families and the T-transform
qseries     q-Pochhammer, q-Beta measures, convolution exponentials, h_p
hermite     orthonormal Hermite values and certified G(t, x) positivity
catalog     string-id resolution for the CLI
verify      named verification suites
"""

from .errors import (BudgetError, DomainError, InconsistencyError,
                     MomentForgeError, PreconditionError, QuadratureError,
                     RangeError, UnsupportedError)
from .measures import (AtomicMeasure, DensityMeasure, MellinValue,
                       MomentSequence, additive_convolve, integral, mellin,
                       moment, product_convolve, pushforward)
from .hankel import (HankelVerdict, CarlemanDiagnostic, carleman_diagnostic,
                     power_sequence, stieltjes_check, trichotomy_classify)
from .bernstein import (BernsteinFunction, LevyKhinchinRep, affine, kappa_of,
                        lk_log_moment, lk_rep_of,
                        linear, log_moment_via_rep, mobius, power_moments,
                        powertower, psi, qratio, ratio, sigma_of)
from .semigroups import (BetaFamily, GammaFamily, LogNormalQFamily,
                         beta_density, beta_mellin, gamma_density,
                         gamma_mellin, t_transform, vc_density, vc_mellin)
from .qseries import (PowerSeries, QParams, hp_coefficients, mellin_qbeta,
                      mu_abq, mu_c, nu_a, qbeta_moment_sequence,
                      qbinomial_check, qpoch, sigma_abgamma, tau_c)
from .hermite import (GenFunValue, ScanReport, generating_G, hermite_H,
                      hermite_h, positivity_scan)
from .catalog import CatalogObject, resolve
from .verify import CheckResult, render_report, run_suite

__version__ = "0.1.0"
