"""Moment-sequence testing: Hankel positivity, Carleman diagnostics,
power transforms and the three-case zero-pattern classifier.

Every function here reads a sequence one way only, as its logs
``s.log(n)``, so a moment past binary64 is still read, and
:class:`measures.MomentSequence` alone refuses a nan or negative moment.
The positive-semidefiniteness test builds one diagonally rescaled Hankel
matrix from those logs for every sequence, zero moments included, so that
factorial-type sequences remain testable in binary64 at order N = 8; the
Carleman check is an explicitly heuristic pattern diagnostic, never a
proof of (in)determinacy.
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
    the largest remaining diagonal entry drops below -tol.  Once it is at
    most tol the factorisation stops and reads the whole remaining block:
    a PSD block has |a_ij| <= sqrt(a_ii a_jj) <= tol, so any entry larger
    than tol in modulus is a failure too (Higham 1990), reported with the
    pivot less that entry, which is negative.
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
            largest = np.max(np.abs(a[k:, k:]))
            if largest > tol:
                return k, pivot - largest
            return None, min(min_pivot, np.min(diag))
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
        col = a[k + 1:, k] / pivot
        a[k + 1:, k + 1:] -= np.outer(col, a[k + 1:, k])
    return None, min_pivot


def _scaled_hankel(log_s, N, shift):
    """Hankel matrix (s_{i+j+shift}) with each positive diagonal entry
    brought to 1, from the logs ``log_s`` (finite or -inf).

    Entry (i, j) is exp(log s_{i+j+shift} - (d_i + d_j) / 2), with d_i =
    log s_{2i+shift}, which tames the dynamic range of factorial-type
    sequences.  Where s_{2i+shift} = 0, d_i is one fixed scale, the
    largest finite log in ``log_s`` (0 if there is none), in place of the
    -inf that would make the row nan; its diagonal entry is then 0.  The
    operations are those of a scalar loop, so a positive sequence gets the
    same entries bit for bit.
    """
    log_s = np.array(log_s)
    i = np.arange(N + 1)
    d = log_s[2 * i + shift]
    d[d == -math.inf] = max(log_s[log_s > -math.inf], default=0.0)
    expo = log_s[i[:, None] + i + shift] - 0.5 * (d[:, None] + d)
    if expo.max() > 700.0:
        raise RangeError(
            "scaled Hankel entry overflows binary64; retry with a "
            "log-domain representation")
    # math.exp, not np.exp, which may round the last bit differently
    return np.reshape([math.exp(e) for e in expo.ravel().tolist()],
                      expo.shape)


def stieltjes_check(s, N):
    """Test H0 = (s_{i+j}) and H1 = (s_{i+j+1}) for PSD up to order N.

    Reads s only as log s_0 .. log s_{2N+1}, once, and tests the
    matrices :func:`_scaled_hankel` builds from them, one rule for every
    sequence, zero moments included.  The tolerance PSD_TOL is relative
    to those matrices, whose positive diagonal entries are 1.  A log of
    +inf is a :class:`DomainError`, and so, from :class:`MomentSequence`,
    are a negative or nan moment.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    log_s = [s.log(n) for n in range(2 * N + 2)]
    if math.inf in log_s:
        raise DomainError("Stieltjes moment sequences must be finite and "
                          "nonnegative")
    worst = math.inf
    for shift, name in ((0, "H0"), (1, "H1")):
        failed, pivot = _min_pivot_pivoted_cholesky(
            _scaled_hankel(log_s, N, shift), PSD_TOL)
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
    as zero where its log is at or below log(1e-13) plus the largest of
    them, -inf included."""
    log_s = [s.log(n) for n in range(N + 1)]
    if log_s[0] == -math.inf:
        raise DomainError("s_0 must be positive")
    threshold = math.log(1e-13) + max(log_s)
    is_zero = [v <= threshold for v in log_s]
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
