"""Assembly and direct solution of the coupled saddle-point system.

Stacking the primal unknown u and the dual variable z, the discrete
optimality system reads

    [ S   A^T ] [u]   [b_data  ]
    [ A  -S_* ] [z] = [b_source]

with S the primal stabilizer (data mass + jump penalty), A the PDE form
and S_* the dual stabilizer.  The matrix is symmetric (indefinite) and is
factorized directly: on the structured mesh in a nested-dissection order
without pivoting, otherwise (or when that factorization fails or misses
the residual gate) in SuperLU's default COLAMD order with partial
pivoting.  One factorization serves the solve and the condition estimate;
it is released when ``solve`` returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import FeFunction
from .mesh import Mesh, _nested_dissection

__all__ = [
    "SaddleSystem",
    "Solution",
    "Factorization",
    "build_system",
    "factorize",
    "solve",
    "exact_condition_number",
    "estimate_condition_number",
    "CondEstimate",
    "NumericalFailure",
]


class NumericalFailure(RuntimeError):
    """Raised when factorization or residual checks fail."""


@dataclass
class SaddleSystem:
    """Symmetric block system; unknowns are stacked as (u, z)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n: int

    def symmetry_defect(self) -> float:
        """Relative max-norm asymmetry of the assembled matrix."""
        diff = (self.matrix - self.matrix.T).tocoo()
        num = np.abs(diff.data).max() if diff.nnz else 0.0
        den = np.abs(self.matrix.data).max() if self.matrix.nnz else 1.0
        return float(num / den)


def build_system(pde, primal, dual, b_data, b_source) -> SaddleSystem:
    """Assemble the symmetric arrangement from the individual blocks."""
    n = pde.shape[0]
    for name, block in (("pde", pde), ("primal", primal), ("dual", dual)):
        if block.shape != (n, n):
            raise ValueError(f"{name} block has shape {block.shape}, "
                             f"expected {(n, n)}")
    if len(b_data) != n or len(b_source) != n:
        raise ValueError("right-hand side length mismatch")
    mat = sp.bmat([[primal, pde.T], [pde, -dual]], format="csr")
    rhs = np.concatenate([b_data, b_source])
    return SaddleSystem(mat, rhs, n)


@dataclass
class Factorization:
    """Sparse LU factors of a saddle matrix, applied in the original order.

    ``p`` is the symmetric permutation the factors were computed in
    (``None`` when SuperLU chose its own ordering) and ``ordering`` names
    it: ``"nested_dissection"`` or ``"colamd"``.
    """

    lu: spla.SuperLU
    p: Optional[np.ndarray]
    ordering: str

    @property
    def lu_nnz(self) -> int:
        """Fill: the entries SuperLU stores for L and U.

        Read from the factors rather than as ``lu.L.nnz + lu.U.nnz``,
        because those properties copy the factors into new matrices.
        """
        return int(self.lu.nnz)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve ``M x = b`` (``trans="T"``: ``M^T x = b``)."""
        if self.p is None:
            return self.lu.solve(b, trans=trans)
        x = np.empty_like(b)
        x[self.p] = self.lu.solve(b[self.p], trans=trans)
        return x


def _factorize_colamd(system: SaddleSystem) -> Factorization:
    try:
        lu = spla.splu(system.matrix.tocsc())
    except RuntimeError as exc:
        raise NumericalFailure(f"factorization failed: {exc}") from exc
    return Factorization(lu, None, "colamd")


def factorize(system: SaddleSystem,
              mesh: Optional[Mesh] = None) -> Factorization:
    """LU factorization of the saddle matrix.

    When ``mesh`` is the structured mesh the system was assembled on, the
    unknowns are ordered by nested dissection of its node grid, with
    ``u_k`` and ``z_k`` of each node side by side, and factorized without
    pivoting.  The matrix is quasi-definite (S and S_* are positive
    definite), so every symmetric permutation has an LDL^T factorization
    (Vanderbei, SIAM J. Optim. 5, 1995); but the blocks are badly
    conditioned, so the pivot-free factors can still break down or lose
    accuracy.  On a breakdown, as without a matching mesh, this falls back
    to SuperLU's COLAMD ordering with partial pivoting; ``solve`` does the
    same when the factors miss its residual gate.  Raises NumericalFailure
    when COLAMD fails too.
    """
    if mesh is not None and 2 * mesh.n_nodes == system.matrix.shape[0]:
        q = _nested_dissection(mesh.cells_per_side)
        p = np.column_stack([q, q + system.n]).ravel()
        try:
            lu = spla.splu(system.matrix[p][:, p].tocsc(),
                           permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            pass
        else:
            return Factorization(lu, p, "nested_dissection")
    return _factorize_colamd(system)


@dataclass
class Solution:
    """Primal/dual pair with solver diagnostics.

    ``cond`` is the condition number ``solve`` was asked for, or ``None``.
    """

    u: FeFunction
    z: FeFunction
    diagnostics: dict
    cond: Optional[CondEstimate] = None


def _refined_solve(system: SaddleSystem, fact: Factorization):
    """LU solve with up to two refinement steps; returns (x, rel. residual)."""
    x = fact.solve(system.rhs)
    bnorm = np.linalg.norm(system.rhs)
    if bnorm == 0:
        return x, 0.0
    for _ in range(2):
        r = system.rhs - system.matrix @ x
        if np.linalg.norm(r) / bnorm <= 1e-12:
            break
        x = x + fact.solve(r)
    r = system.rhs - system.matrix @ x
    return x, float(np.linalg.norm(r) / bnorm)


def solve(system: SaddleSystem, mesh: Mesh, cond: str = "none",
          cond_tol: float = 1e-3, cond_max_iter: int = 5000) -> Solution:
    """Direct sparse LU solve with iterative refinement.

    The relative algebraic residual is checked against 1e-8.  A
    nested-dissection factorization that misses it is replaced by the
    COLAMD one; when that misses it too, NumericalFailure is raised.
    ``factor_seconds`` covers ordering, permutation and factorization.

    ``cond`` adds the condition number as ``Solution.cond``: 'exact' by
    dense SVD, 'estimate' by ``estimate_condition_number`` (with
    ``cond_tol`` and ``cond_max_iter``) on the factors of the solve,
    'none' leaves it out.
    """
    if cond not in ("none", "exact", "estimate"):
        raise ValueError(f"unknown cond mode {cond!r}")
    t0 = time.perf_counter()
    fact = factorize(system, mesh)
    t_factor = time.perf_counter() - t0
    t0 = time.perf_counter()
    x, rel = _refined_solve(system, fact)
    t_solve = time.perf_counter() - t0

    if not rel <= 1e-8 and fact.ordering != "colamd":
        fact = None  # release the failed factors before refactorizing
        t0 = time.perf_counter()
        fact = _factorize_colamd(system)
        t_factor += time.perf_counter() - t0
        t0 = time.perf_counter()
        x, rel = _refined_solve(system, fact)
        t_solve += time.perf_counter() - t0
    if not rel <= 1e-8:
        raise NumericalFailure(f"relative residual {rel:.3e} exceeds 1e-8")

    n = system.n
    diagnostics = {
        "dimension": 2 * n,
        "nnz": int(system.matrix.nnz),
        "lu_nnz": fact.lu_nnz,
        "ordering": fact.ordering,
        "relative_residual": rel,
        "symmetry_defect": system.symmetry_defect(),
        "factor_seconds": t_factor,
        "solve_seconds": t_solve,
    }
    kappa = None
    if cond == "exact":
        kappa = CondEstimate(exact_condition_number(system), converged=True)
    elif cond == "estimate":
        kappa = estimate_condition_number(system, tol=cond_tol,
                                          max_iter=cond_max_iter,
                                          factorization=fact)
    return Solution(FeFunction(mesh, x[:n]), FeFunction(mesh, x[n:]),
                    diagnostics, kappa)


# largest dimension exact_condition_number accepts: a dense SVD costs
# O(dim**3) time and O(dim**2) memory
DENSE_SVD_MAX_DIM = 2000


def exact_condition_number(system: SaddleSystem) -> float:
    """Two-norm condition number by dense SVD, up to DENSE_SVD_MAX_DIM."""
    dim = system.matrix.shape[0]
    if dim > DENSE_SVD_MAX_DIM:
        raise ValueError(f"dense SVD guarded to dimension "
                         f"{DENSE_SVD_MAX_DIM}, got {dim}")
    svals = np.linalg.svd(system.matrix.toarray(), compute_uv=False)
    if svals[-1] == 0:
        raise NumericalFailure("system matrix is singular")
    return float(svals[0] / svals[-1])


@dataclass
class CondEstimate:
    """Condition number with convergence metadata.

    ``bracket`` holds the last two iterates of the condition estimate; it
    tracks progress, it is not a rigorous enclosure.  ``ordering`` and
    ``lu_nnz`` describe the factorization the inverse iteration ran on.
    An exact value (dense SVD) is converged and leaves the other fields
    ``None``.
    """

    value: float
    converged: bool
    sigma_max: Optional[float] = None
    sigma_min: Optional[float] = None
    bracket: Optional[tuple] = None
    iterations: Optional[tuple] = None
    ordering: Optional[str] = None
    lu_nnz: Optional[int] = None

    def __float__(self):
        return self.value


def _power_sigma_max(mat, tol, max_iter, rng):
    """Power iteration on M^T M; returns (estimate, previous, its, converged)."""
    v = rng.standard_normal(mat.shape[0])
    v /= np.linalg.norm(v)
    est = prev = 0.0
    for it in range(1, max_iter + 1):
        w = mat @ v
        s = np.linalg.norm(w)
        w = mat.T @ w
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0, 0.0, it, True
        v = w / nw
        prev, est = est, s
        if prev > 0 and abs(est - prev) <= tol * est:
            return est, prev, it, True
    return est, prev, max_iter, False


def _inverse_sigma_min(fact, dim, tol, max_iter, rng):
    """Inverse iteration on M^T M through the LU factors."""
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = prev = np.inf
    for it in range(1, max_iter + 1):
        y = fact.solve(v, trans="T")
        s = 1.0 / np.linalg.norm(y)
        w = fact.solve(y)
        v = w / np.linalg.norm(w)
        prev, est = est, s
        if np.isfinite(prev) and abs(est - prev) <= tol * est:
            return est, prev, it, True
    return est, prev, max_iter, False


def estimate_condition_number(
        system: SaddleSystem, tol: float = 1e-3, max_iter: int = 5000,
        seed: int = 0,
        factorization: Optional[Factorization] = None) -> CondEstimate:
    """Estimate the two-norm condition number without dense linear algebra.

    The largest singular value comes from power iteration on M^T M, the
    smallest from inverse iteration through the sparse LU factorization:
    ``factorization`` when given (``solve`` passes its own), otherwise
    ``factorize(system)``.  Hitting the iteration cap leaves ``converged``
    False; ``bracket`` then shows how far the last two iterates were apart.
    """
    fact = factorization if factorization is not None \
        else factorize(system)
    mat = system.matrix.tocsc()
    rng = np.random.default_rng(seed)
    smax, smax_prev, it_max, ok_max = _power_sigma_max(mat, tol, max_iter, rng)
    smin, smin_prev, it_min, ok_min = _inverse_sigma_min(fact, mat.shape[0],
                                                         tol, max_iter, rng)
    converged = ok_max and ok_min
    value = smax / smin
    lo = (smax_prev if np.isfinite(smax_prev) else smax) \
        / (smin_prev if np.isfinite(smin_prev) else smin)
    bracket = (float(min(lo, value)), float(max(lo, value)))
    return CondEstimate(float(value), converged, float(smax), float(smin),
                        bracket, (it_max, it_min), fact.ordering, fact.lu_nnz)
