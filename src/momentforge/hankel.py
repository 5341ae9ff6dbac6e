"""Moment-sequence testing: Hankel positivity, Carleman diagnostics,
power transforms and the three-case zero-pattern classifier.

The positive-semidefiniteness test works on diagonally rescaled Hankel
matrices so that factorial-type sequences remain testable in binary64 at
order N = 8; the Carleman check is an explicitly heuristic pattern
diagnostic, never a proof of (in)determinacy.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, InconsistencyError, RangeError
from .measures import MomentSequence

# verdict labels
CONSISTENT_PSD = "ConsistentPSD"
FAILED_AT = "FailedAt"

DIVERGENT = "DivergentPattern"
CONVERGENT = "ConvergentPattern"
INCONCLUSIVE = "Inconclusive"

ALL_POSITIVE = "AllPositive"
SYMMETRIC_ZERO_ODD = "SymmetricZeroOdd"
DIRAC_AT_ZERO = "DiracAtZero"

#: the most negative pivot, relative to a unit diagonal, that
#: :func:`stieltjes_check` still reads as PSD
PSD_TOL = 1e-9


class HankelVerdict(NamedTuple):
    status: str
    order_tested: int
    tolerance: float
    failed_order: Optional[int] = None
    failed_matrix: Optional[str] = None
    min_pivot: Optional[float] = None

    @property
    def is_psd(self):
        return self.status == CONSISTENT_PSD

    def to_json_dict(self):
        data = {"status": self.status, "order_tested": self.order_tested,
                "tolerance": self.tolerance}
        if self.status == FAILED_AT:
            data.update(failed_order=self.failed_order,
                        failed_matrix=self.failed_matrix,
                        min_pivot=self.min_pivot)
        return data


class CarlemanDiagnostic(NamedTuple):
    partial_sum: float
    slope_estimate: float
    verdict: str


def _min_pivot_pivoted_cholesky(matrix, tol):
    """Return (failed_index, pivot) on failure, else (None, min pivot seen).

    Pivoted outer-product Cholesky; the matrix is destroyed.  Failure means
    the largest remaining diagonal entry drops below -tol.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    min_pivot = math.inf
    for k in range(n):
        diag = np.diag(a[k:, k:])
        j = int(np.argmax(diag)) + k
        pivot = a[j, j]
        min_pivot = min(min_pivot, pivot)
        if pivot < -tol:
            return k, pivot
        if pivot <= tol:
            # remaining block is numerically zero on the diagonal; any
            # diagonal entry below -tol would have been caught above
            remaining = np.min(np.diag(a[k:, k:]))
            min_pivot = min(min_pivot, remaining)
            if remaining < -tol:
                return k, remaining
            break
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
        col = a[k + 1:, k] / pivot
        a[k + 1:, k + 1:] -= np.outer(col, a[k + 1:, k])
    return None, min_pivot


def _scaled_hankel(log_s, N, shift):
    """Hankel matrix (s_{i+j+shift}) with diagonal brought to 1.

    Entry (i, j) becomes exp(log s_{i+j+shift} - (log s_{2i+shift}
    + log s_{2j+shift}) / 2), taming the dynamic range of factorial-type
    sequences.
    """
    a = np.empty((N + 1, N + 1))
    for i in range(N + 1):
        for j in range(N + 1):
            expo = (log_s[i + j + shift]
                    - 0.5 * (log_s[2 * i + shift] + log_s[2 * j + shift]))
            if expo > 700.0:
                raise RangeError(
                    "scaled Hankel entry overflows binary64; retry with a "
                    "log-domain representation")
            a[i, j] = math.exp(expo)
    return a


def stieltjes_check(s, N):
    """Test H0 = (s_{i+j}) and H1 = (s_{i+j+1}) for PSD up to order N.

    The tolerance PSD_TOL is relative to the rescaled matrices whose
    diagonal is 1.  Requires s_n defined up to n = 2N + 1, each finite
    and nonnegative, else a :class:`DomainError`.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    values = [s(n) for n in range(2 * N + 2)]
    if not all(0 <= v < math.inf for v in values):
        raise DomainError("Stieltjes moment sequences must be finite and "
                          "nonnegative")
    if any(v == 0.0 for v in values):
        # degenerate (zero-containing) sequences: test the raw matrices,
        # whose entries are bounded by max(values)
        scale = max(values)

        def matrix(shift):
            return np.array([[values[i + j + shift] for j in range(N + 1)]
                             for i in range(N + 1)]) / scale
    else:
        log_s = [s.log(n) for n in range(2 * N + 2)]

        def matrix(shift):
            return _scaled_hankel(log_s, N, shift)
    worst = math.inf
    for shift, name in ((0, "H0"), (1, "H1")):
        failed, pivot = _min_pivot_pivoted_cholesky(matrix(shift), PSD_TOL)
        if failed is not None:
            return HankelVerdict(FAILED_AT, N, PSD_TOL, failed, name, pivot)
        worst = min(worst, pivot)
    return HankelVerdict(CONSISTENT_PSD, N, PSD_TOL, min_pivot=worst)


def carleman_diagnostic(s, N):
    """Partial sums of s_n^{-1/(2n)} and a growth-pattern verdict.

    Divergent pattern: partial sums grow at least like N^0.25.
    Convergent pattern: terms decay faster than n^{-1.05}.
    Both estimated from log-log slopes over the upper half of the range;
    anything in between is reported as inconclusive.  This is a heuristic
    reading of a one-sided sufficient condition, never a certificate.
    """
    if N < 8:
        raise DomainError("need N >= 8 for a slope estimate")
    terms = []
    for n in range(1, N + 1):
        log_sn = s.log(n)
        if log_sn == -math.inf:
            raise DomainError("log of nonpositive moment s_%d" % n)
        terms.append(math.exp(-log_sn / (2.0 * n)))
    if any(t <= 0 for t in terms):
        raise DomainError("terms must be positive")
    partial = np.cumsum(terms)
    half = N // 2
    slope = ((math.log(partial[-1]) - math.log(partial[half - 1]))
             / (math.log(N) - math.log(half)))
    term_decay = ((math.log(terms[-1]) - math.log(terms[half - 1]))
                  / (math.log(N) - math.log(half)))
    if term_decay < -1.05:
        verdict = CONVERGENT
    elif slope >= 0.25:
        verdict = DIVERGENT
    else:
        verdict = INCONCLUSIVE
    return CarlemanDiagnostic(float(partial[-1]), slope, verdict)


def trichotomy_classify(s, N):
    """The label of the zero pattern of s_0..s_N among the three allowed
    cases: ALL_POSITIVE, DIRAC_AT_ZERO or SYMMETRIC_ZERO_ODD.  s_n counts
    as zero at or below 1e-13 times the largest of them."""
    values = [s(n) for n in range(N + 1)]
    if values[0] <= 0:
        raise DomainError("s_0 must be positive")
    threshold = 1e-13 * max(values)
    is_zero = [abs(v) <= threshold for v in values]
    if not any(is_zero[1:]):
        return ALL_POSITIVE
    if all(is_zero[1:]):
        return DIRAC_AT_ZERO
    even_pos = all(not is_zero[n] for n in range(0, N + 1, 2))
    odd_zero = all(is_zero[n] for n in range(1, N + 1, 2))
    if even_pos and odd_zero:
        return SYMMETRIC_ZERO_ODD
    raise InconsistencyError(
        "zero pattern matches none of the three admissible cases; the "
        "input cannot be an infinitely divisible moment sequence")


def power_sequence(s, c):
    """The sequence n -> s_n^c, computed in log domain, with 0^c = 0, for
    0 < c < inf."""
    if not 0 < c < math.inf:
        raise DomainError("exponent must be positive and finite")
    return MomentSequence(log_fn=lambda n: c * s.log(n))
