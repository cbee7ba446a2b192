"""The interface operators, each stated once: the Neumann-to-Dirichlet
map N, the transmission factor D and W = -N D^{-1}, through which alone
the potential acts on the exterior.  The interval's are exact 2x2
matrices, with the norm of E_lam (rank <= 2) in closed form, an oracle
free of any grid; the flat ones are multipliers at frequency xi (on a
circle of radius R, angular mode k sits at xi = k / R).  Traces are
oriented into the inclusion, as ``grids`` fixes them, so N < 0 < W and
(E f, f) >= 0.
"""

import math

import numpy as np

from .errors import DomainError


def ntd_matrix_1d(lam, inclusion_length):
    """Exact interface Neumann-to-Dirichlet matrix of the 1D inclusion.

    Maps (gamma1 u at a1, gamma1 u at a2) to (gamma0 u at a1, gamma0 u
    at a2) for solutions of (-u'' + lam u) = 0 on the inclusion, traces
    oriented into the inclusion.  Overflow-safe in sqrt(lam)*length:
    the diagonal tends to -1/sqrt(lam) and the off-diagonal entries die
    like exp(-sqrt(lam)*length).  A sequence ``lam`` gives one matrix
    per entry, an array (len(lam), 2, 2), each the scalar call's to the
    bit.
    """
    lams = np.ravel(lam).tolist()
    if any(value <= 0 for value in lams) or inclusion_length <= 0:
        raise DomainError("need lam > 0 and a positive inclusion length")
    mats = []
    for value in lams:
        s = math.sqrt(value) * inclusion_length
        em = math.exp(-s)
        coth = (1.0 + em * em) / (1.0 - em * em)
        csch = 2.0 * em / (1.0 - em * em)
        scale = -(1.0 / math.sqrt(value))
        mats.append([[scale * coth, scale * csch],
                     [scale * csch, scale * coth]])
    mats = np.array(mats)
    return mats[0] if np.ndim(lam) == 0 else mats


def difference_matrix_1d(domain, lam):
    """Exact 2x2 interface difference operator W = -N D^{-1} (positive),
    one per entry of a sequence ``lam`` as in ``ntd_matrix_1d``.

    Under the Neumann outer boundary the exterior harmonic extension is
    constant on each component, so its gamma1 vanishes, the transmission
    factor D = Id - (exterior DtN) N is the identity and W = -N.
    """
    return -ntd_matrix_1d(lam, domain.inclusion_length)


def exterior_gram_1d(domain):
    """Gram matrix S S* of the trace-of-exterior-solve map S = gamma1 B^{-1}.

    From the closed-form exterior Green's functions: S f =
    (-int_left f, -int_right f), so S S* = diag(a1, L - a2).
    """
    return np.diag([domain.a1, domain.length - domain.a2])


def difference_norm_exact_1d(domain, lam):
    """Norm of E_lam in 1D from the rank-2 factorization E = S* W S.

    The nonzero spectrum of S* W S equals that of W^{1/2} (S S*) W^{1/2},
    a 2x2 symmetric eigenproblem; no grid is involved anywhere.  A
    sequence ``lam`` gives one norm per entry, the scalar calls' to the
    bit, from one stacked ``cholesky`` and ``eigvalsh``.
    """
    w = difference_matrix_1d(domain, np.ravel(lam))
    gram = exterior_gram_1d(domain)
    half = np.linalg.cholesky(w)
    norms = np.linalg.eigvalsh(np.swapaxes(half, 1, 2) @ gram @ half).max(1)
    return float(norms[0]) if np.ndim(lam) == 0 else norms


def _decay_rate(xi, lam):
    """s = sqrt(xi^2 + lam), the decay rate of the inclusion's mode xi."""
    return np.sqrt(xi * xi + lam)


def flat_ntd(xi, lam):
    """The flat Neumann-to-Dirichlet multiplier N = -1/s (negative)."""
    return -1.0 / _decay_rate(xi, lam)


def flat_transmission(xi, lam):
    """The flat transmission factor D = 1 + |xi|/s."""
    return 1.0 + np.abs(xi) / _decay_rate(xi, lam)


def flat_difference(xi, lam):
    """The flat difference multiplier W = -N D^{-1} = 1/(|xi| + s)."""
    return 1.0 / (np.abs(xi) + _decay_rate(xi, lam))
