"""Interval domains, Dirichlet eigen data, and certified eigen-series sums.

Only two pieces of eigen data enter any heat-content formula: the
eigenvalues lambda_n and the squared eigenfunction masses
m_n^2 = (int_Omega psi_n)^2.  Exact pairs are available at alpha = 2
(Dirichlet Laplacian sine basis on an interval); fractional eigenpairs
are not approximated here but can be supplied from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import TruncationBudgetError, ValidationError

__all__ = [
    "IntervalDomain",
    "EigenSystem",
    "bm_interval_eigensystem",
    "SeriesValue",
    "weighted_series",
    "load_eigensystem",
    "save_eigensystem",
]


@dataclass(frozen=True)
class IntervalDomain:
    """Bounded open interval (a, b); |boundary| = 2 in dimension one."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValidationError(f"need a < b, got ({self.a}, {self.b})")

    @property
    def volume(self) -> float:
        return self.b - self.a

    @property
    def boundary_measure(self) -> float:
        return 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Truncated eigen data (lambda_n, m_n^2) with its declared total mass.

    The masses satisfy sum_n m_n^2 = |Omega| in the full series; partial
    sums must stay below the declared mass, which is what certifies the
    series tail bounds downstream.
    """

    lambdas: np.ndarray
    masses_sq: np.ndarray
    total_mass: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        msq = np.asarray(self.masses_sq, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "masses_sq", msq)
        if lam.ndim != 1 or lam.shape != msq.shape or lam.size == 0:
            raise ValidationError("lambdas and masses_sq must be equal-length 1-d arrays")
        finite = np.isfinite(lam).all() and np.isfinite(msq).all()
        if not (finite and math.isfinite(self.total_mass)):
            raise ValidationError("eigenvalues, masses and total mass must be finite")
        if not lam[0] > 0.0:
            raise ValidationError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValidationError("eigenvalues must be nondecreasing")
        if np.any(msq < 0.0):
            raise ValidationError("masses must be nonnegative")
        if self.total_mass <= 0.0:
            raise ValidationError("total mass must be positive")
        if float(msq.sum()) > self.total_mass * (1.0 + 1e-12):
            raise ValidationError("partial mass exceeds the declared total mass")

    @property
    def size(self) -> int:
        return int(self.lambdas.size)

    @property
    def partial_mass(self) -> float:
        return float(self.masses_sq.sum())


def bm_interval_eigensystem(domain: IntervalDomain, n_modes: int) -> EigenSystem:
    """Exact Dirichlet eigenpairs of the generator at alpha = 2 on an interval.

    With the convention exp(-t |xi|^2) the generator is the full
    Laplacian, so on (a, a + L):

        lambda_n = (n pi / L)^2,
        m_n^2    = 8 L / (n^2 pi^2) for odd n, 0 for even n.
    """
    if n_modes < 1:
        raise ValidationError(f"n_modes must be >= 1, got {n_modes}")
    L = domain.volume
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = (n * math.pi / L) ** 2
    msq = np.where(n % 2 == 1, 8.0 * L / (n ** 2 * math.pi ** 2), 0.0)
    return EigenSystem(lambdas=lam, masses_sq=msq, total_mass=L)


# Nonzero-mass modes per weight evaluation in weighted_series: bounds its
# memory whatever the eigen table size.
_BLOCK = 512


@dataclass(frozen=True)
class SeriesValue:
    """A partial eigen sum together with its certified tail bound.

    The exact series value lies in [value, value + tail_bound] for
    nonnegative nonincreasing weights.
    """

    value: float
    tail_bound: float
    n_terms: int


def weighted_series(
    eig: EigenSystem,
    weights: Callable[[np.ndarray], np.ndarray],
    tol: float | None = None,
) -> SeriesValue:
    """sum_n w(lambda_n) m_n^2 with a certified truncation bound.

    ``weights`` maps an array of eigenvalues to the array of their
    weights, which must be nonincreasing and nonnegative (checked on the
    evaluated sequence).  After the last evaluated term the tail obeys

        tail <= w(lambda_N) * (total_mass - partial_mass_N).

    Weights are evaluated on blocks of ``_BLOCK`` nonzero-mass modes (a
    zero-mass mode never costs a weight evaluation).  With ``tol`` given,
    evaluation stops at the first mode whose certificate drops below
    ``tol``, and only the weights up to that mode are checked and summed;
    :class:`TruncationBudgetError` is raised if the budget runs out first.
    """
    (nonzero,) = np.nonzero(eig.masses_sq)
    total, mass_used, prev_w = 0.0, 0.0, math.inf
    cert, n_used = math.inf, 0
    for start in range(0, nonzero.size, _BLOCK):
        idx = nonzero[start:start + _BLOCK]
        w = np.asarray(weights(eig.lambdas[idx]), dtype=float)
        msq = eig.masses_sq[idx]
        # running sums in mode order, carried across blocks
        mass = np.cumsum(np.concatenate(([mass_used], msq)))[1:]
        certs = w * np.maximum(eig.total_mass - mass, 0.0)
        if tol is not None:
            (done,) = np.nonzero(certs <= tol)
            if done.size:
                w = w[:done[0] + 1]
        bad = ~np.isfinite(w) | (w < 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            lam = eig.lambdas[idx[k]]
            raise ValidationError(f"weight({lam}) = {w[k]} is not a finite nonnegative value")
        steps = np.concatenate(([prev_w], w))
        if np.any(np.diff(steps) > steps[:-1] * 1e-9 + 1e-12):
            raise ValidationError("weight must be nonincreasing in lambda")
        n = w.size
        total = float(np.cumsum(np.concatenate(([total], w * msq[:n])))[-1])
        mass_used, prev_w = float(mass[n - 1]), float(w[-1])
        cert, n_used = float(certs[n - 1]), int(idx[n - 1]) + 1
        if tol is not None and cert <= tol:
            return SeriesValue(value=total, tail_bound=cert, n_terms=n_used)
    if tol is not None and cert > tol:
        raise TruncationBudgetError(
            f"tail certificate {cert} above tol={tol} after {eig.size} modes"
        )
    if not math.isfinite(cert):
        cert = eig.total_mass  # no finite weight evaluated (all masses zero)
    return SeriesValue(value=total, tail_bound=cert, n_terms=n_used)


# ---------------------------------------------------------------------------
# Eigen-table file format: '#mass <value>' header, 'lambda m_sq' rows,
# '#' starts a comment.
# ---------------------------------------------------------------------------


def save_eigensystem(eig: EigenSystem, path: str | Path) -> None:
    lines = [f"#mass {float(eig.total_mass)!r}"]
    lines += [f"{float(l)!r} {float(m)!r}" for l, m in zip(eig.lambdas, eig.masses_sq)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_eigensystem(path: str | Path) -> EigenSystem:
    mass = None
    lams: list[float] = []
    msqs: list[float] = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("mass"):
                try:
                    mass = float(body.split()[1])
                except (IndexError, ValueError) as exc:
                    raise ValidationError(f"{path}:{ln}: malformed mass header") from exc
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"{path}:{ln}: expected 'lambda m_sq', got {line!r}")
        try:
            lams.append(float(parts[0]))
            msqs.append(float(parts[1]))
        except ValueError as exc:
            raise ValidationError(f"{path}:{ln}: non-numeric entry") from exc
    if mass is None:
        raise ValidationError(f"{path}: missing '#mass <value>' header")
    if not lams:
        raise ValidationError(f"{path}: no eigen rows")
    return EigenSystem(lambdas=np.array(lams), masses_sq=np.array(msqs), total_mass=mass)
