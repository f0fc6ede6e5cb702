"""Two orthonormal vectors from two triangles sharing one weak vertex.

``solve_pair`` realizes the closed-form gauge: beta = 0,
cos(alpha) = -p1/(1-p1), sin(alpha) = +sqrt(1-2 p1)/(1-p1), theta = 0 and
tan(tau) = sqrt(1-2 p1)/sqrt(p1 q1). Under this gauge the constant term of
the quadratic x^2 + A x + B = 0 vanishes (B = 0), the discriminant
condition A^2 >= 4B holds automatically, and the valid root is x = 0. A
pair that misses the residual gates raises NoSolution: no other root of
the gauge family is searched, since a consistent problem meets the gates
at this one.

The output pair is orthonormal and each vector's weighted eigenvalue sum
equals the target value. Note that the pair is generally NOT orthogonal in
the sigma-weighted sense (sum lam_m conj(z1) z2 != 0); the projector
pipeline therefore uses the block solver in :mod:`rankrange.blocks`, which
enforces the full set of compression conditions. See that module for the
stronger construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin, sqrt

import numpy as np

from .errors import BothHeavy, DegenerateDenominator, NoSolution, ParseError
from .spectra import EigenSystem

GRAM_TOL = 1e-10
VALUE_TOL = 1e-10
DEGENERATE_PRODUCT = 1e-14


@dataclass(frozen=True)
class SharedVertexProblem:
    """Two convex decompositions of the same target over disjoint index sets
    T and R plus one shared index."""
    shared_index: int
    p1: float
    q1: float
    t_weights: dict
    r_weights: dict
    target: complex

    def __post_init__(self):
        t_set, r_set = set(self.t_weights), set(self.r_weights)
        if t_set & r_set:
            raise ParseError(f"index sets overlap: {sorted(t_set & r_set)}")
        if self.shared_index in t_set | r_set:
            raise ParseError("shared index also appears in a side set")

    def swapped(self) -> "SharedVertexProblem":
        return SharedVertexProblem(self.shared_index, self.q1, self.p1,
                                   dict(self.r_weights), dict(self.t_weights),
                                   self.target)


@dataclass(frozen=True)
class PairParameters:
    alpha: float
    beta: float
    theta: float
    tau: float
    x: float
    y: float
    A: float
    B: float

    def equation_residuals(self, p1: float, q1: float):
        """Residuals of the two orthogonality equations and the quadratic."""
        xy = self.x * self.y
        e1 = p1 + q1 * xy + cos(self.alpha) * (1 - p1) \
            + cos(self.beta) * (1 - q1) * xy
        e2 = sqrt(p1 * q1) * (self.x - self.y) \
            + sin(self.alpha) * (1 - p1) + sin(self.beta) * (1 - q1) * xy
        e3 = self.x ** 2 + self.A * self.x + self.B
        return abs(e1), abs(e2), abs(e3)


@dataclass(frozen=True)
class VectorCoefficients:
    """Expansion coefficients of one vector over the eigenbasis."""
    coefficients: dict
    norm_residual: float
    compression_residual: float

    def dense(self, dim: int) -> np.ndarray:
        v = np.zeros(dim, dtype=complex)
        for j, z in self.coefficients.items():
            v[(j - 1) % dim] += z
        return v


def _coeff_vector(es: EigenSystem, coeffs: dict, target: complex) -> VectorCoefficients:
    norm = sum(abs(z) ** 2 for z in coeffs.values())
    comp = sum(es.eigenvalue(j) * abs(z) ** 2 for j, z in coeffs.items())
    return VectorCoefficients(coefficients=dict(coeffs),
                              norm_residual=float(abs(norm - 1.0)),
                              compression_residual=float(abs(comp - target)))


def discriminant_coeffs(p1: float, q1: float, alpha: float):
    """Coefficients (A, B) of the root equation x^2 + A x + B = 0 in the
    fixed gauge beta = 0, where the denominator q1 + (1-q1) cos(beta) is
    q1 + (1-q1) and the sin(beta) term of A drops out. Raises
    DegenerateDenominator unless p1*q1 > 0."""
    if p1 * q1 <= 0.0:
        raise DegenerateDenominator("p1*q1 must be positive")
    # can differ from 1 in the last bit; the sum keeps A and B bit for bit
    # those of the general-beta formula at beta = 0
    den = q1 + (1 - q1)
    A = (p1 - 1) * sin(alpha) * den / (sqrt(p1 * q1) * den)
    B = (p1 + (1 - p1) * cos(alpha)) / den
    return A, B


def gauge_parameters(p1: float, q1: float) -> PairParameters:
    """The fixed-gauge parameter set for a problem with p1 <= 1/2."""
    if p1 > 0.5:
        raise BothHeavy("gauge requires shared weight p1 <= 1/2")
    root = sqrt(max(0.0, 1.0 - 2.0 * p1))
    alpha = atan2(root / (1 - p1), -p1 / (1 - p1)) if p1 < 1.0 else 0.0
    tau = atan2(root, sqrt(p1 * q1))
    y = tan_or_inf(tau)
    if p1 * q1 > DEGENERATE_PRODUCT:
        A, B = discriminant_coeffs(p1, q1, alpha)
    else:
        A, B = 0.0, 0.0
    return PairParameters(alpha=alpha, beta=0.0, theta=0.0, tau=tau,
                          x=0.0, y=y, A=A, B=B)


def tan_or_inf(t: float) -> float:
    c = cos(t)
    if c == 0.0:
        return float("inf")
    return sin(t) / c


def solve_pair(problem: SharedVertexProblem, es: EigenSystem):
    """Closed-form orthonormal pair for a shared-vertex problem.

    Requires p1 <= 1/2 or q1 <= 1/2; when only q1 qualifies the two sides
    swap roles first. Near-zero shared weight (p1*q1 below the degenerate
    threshold) is handled by the same formulas through atan2, which land on
    the continuous limit of the gauge. A residual check gates the result,
    and a pair that misses it raises NoSolution.
    """
    if problem.p1 > 0.5 and problem.q1 > 0.5:
        raise BothHeavy(
            f"both shared weights exceed 1/2: {problem.p1}, {problem.q1}")
    if problem.p1 > 0.5:
        phi2, phi1 = solve_pair(problem.swapped(), es)
        return phi1, phi2

    params = gauge_parameters(problem.p1, problem.q1)
    phi1, phi2 = _pair_from_parameters(problem, es, params.alpha, params.tau)
    if _pair_ok(phi1, phi2):
        return phi1, phi2
    raise NoSolution("orthonormal pair construction failed")


def _pair_from_parameters(problem, es, alpha, tau):
    """The pair in the fixed gauge beta = theta = 0: phi1 is sqrt(p1) at
    the shared index and e^{i alpha} sqrt(w) on the T side, with no R-side
    entries; phi2 is cos(tau) sqrt(p1) + i sin(tau) sqrt(q1) at the shared
    index, cos(tau) sqrt(w) on the T side and sin(tau) sqrt(w) on R."""
    p1, q1 = problem.p1, problem.q1
    v = problem.shared_index
    cu, su = cos(tau), sin(tau)
    c1 = {v: complex(sqrt(p1), 0.0)}
    for j, w in problem.t_weights.items():
        c1[j] = np.exp(1j * alpha) * sqrt(max(0.0, w))
    c2 = {v: complex(sqrt(p1) * cu, sqrt(q1) * su)}
    for j, w in problem.t_weights.items():
        c2[j] = complex(cu * sqrt(max(0.0, w)))
    for j, w in problem.r_weights.items():
        c2[j] = complex(su * sqrt(max(0.0, w)))
    return (_coeff_vector(es, c1, problem.target),
            _coeff_vector(es, c2, problem.target))


def _pair_ok(phi1: VectorCoefficients, phi2: VectorCoefficients) -> bool:
    overlap = sum(phi1.coefficients[j].conjugate() * z
                  for j, z in phi2.coefficients.items()
                  if j in phi1.coefficients)
    return (abs(overlap) <= GRAM_TOL
            and phi1.norm_residual <= VALUE_TOL
            and phi2.norm_residual <= VALUE_TOL
            and phi1.compression_residual <= VALUE_TOL
            and phi2.compression_residual <= VALUE_TOL)
