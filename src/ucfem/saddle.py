"""Assembly and direct solution of the coupled saddle-point system.

Stacking the primal unknown u and the dual variable z, the discrete
optimality system reads

    [ S   A^T ] [u]   [b_data  ]
    [ A  -S_* ] [z] = [b_source]

with S the primal stabilizer (data mass + jump penalty), A the PDE form
and S_* the dual stabilizer.  The matrix M is symmetric (indefinite),
bit for bit as assembled, and ``solve`` refuses one that is not.  It
exists once, stored in its elimination order, which ``build_system``
computes on the mesh nodes rather than on the unknowns: u and z live on
the same nodes, so SuperLU's multiple minimum degree orders the graph of
M folded onto the nodes, started from that graph's reverse Cuthill-McKee
numbering (minimum degree breaks ties by the input numbering), and each
node's u and z follow each other.  The ordering runs before ``solve``
returns the C heap's free pages, which every solve does once, before
its first factorization, so the ordering's work arrays do not stay
resident under the factors.  SuperLU receives the stored CSR arrays as
the CSC arrays of its transpose, which is the matrix itself, so no copy
is made for it.  One loop tries two factorizations: the stored order
without pivoting, then SuperLU's COLAMD order with partial pivoting;
each solve with them takes at most one refinement step.  The first
factors that pass the residual gate serve the solve and the condition
estimate, which is given them and never factorizes; they are released
when ``solve`` returns.  The estimate runs one power iteration twice:
on M, and through the factors on M^-1.  Vectors move between the
natural (u, z) numbering and the stored one only where they enter or
leave: the solution, the stabilizer norms and the estimator's start
vectors.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .fem import FeFunction, NumericalFailure
from .mesh import Mesh

__all__ = [
    "SaddleSystem",
    "Solution",
    "build_system",
    "solve",
    "exact_condition_number",
    "estimate_condition_number",
    "CondEstimate",
    "NumericalFailure",
]


@dataclass
class SaddleSystem:
    """Symmetric block system M x = b, unknowns stacked (u, z), stored in
    the numbering ``order``: entry i of ``rhs`` and row and column i of
    ``matrix`` belong to unknown ``order[i]`` of the natural (u, z)
    vector, so ``matrix`` is ``M[order][:, order]``.  ``build_system``
    makes ``order`` the elimination order of the factorization."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n: int
    order: np.ndarray

    def symmetry_defect(self) -> float:
        """Relative max-norm asymmetry of the assembled matrix; 0.0 when
        it equals its transpose bit for bit."""
        diff = (self.matrix - self.matrix.T).tocoo()
        num = np.abs(diff.data).max() if diff.nnz else 0.0
        den = np.abs(self.matrix.data).max() if self.matrix.nnz else 1.0
        return float(num / den)

    def stabilizer_norms(self, u: np.ndarray,
                         z: np.ndarray) -> tuple[float, float]:
        """(s(u, u)^(1/2), s_*(z, z)^(1/2)) for node values u and z, read
        from the matrix as [u; 0]^T M [u; 0] and -[0; z]^T M [0; z]."""
        zeros = np.zeros(self.n)
        x = np.concatenate([u, zeros])[self.order]
        y = np.concatenate([zeros, z])[self.order]
        return (float(np.sqrt(x @ (self.matrix @ x))),
                float(np.sqrt(-(y @ (self.matrix @ y)))))


def _node_graph(mat: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """The stored pattern of ``mat``, 2n by 2n, folded onto the n mesh
    nodes: entry (i, j) becomes (i mod n, j mod n), symmetrized, with unit
    off-diagonals and a diagonal of the row's off-diagonal count plus
    one, so that no pivot of its factorization vanishes."""
    columns_folded = sp.csr_matrix(
        (np.ones(mat.nnz), mat.indices % n, mat.indptr), shape=(2 * n, n))
    graph = (columns_folded[:n] + columns_folded[n:]
             + sp.identity(n, format="csr"))
    graph = graph + graph.T
    graph.data[:] = 1.0
    graph.setdiag(np.diff(graph.indptr))  # each row holds its diagonal
    return graph


def _node_order(mat: sp.csr_matrix, n: int) -> np.ndarray:
    """Elimination order of the mesh nodes: SuperLU's multiple minimum
    degree on the node graph of ``mat``, started from the graph's reverse
    Cuthill-McKee numbering.

    ``spilu`` with every off-diagonal dropped is the one call through
    which scipy returns SuperLU's ordering (as ``perm_c``, the position
    of each column) without a full factorization.
    """
    graph = _node_graph(mat, n)
    rcm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
    seeded = graph[rcm][:, rcm]
    # the graph is symmetric, so its CSC view .T is the graph itself
    ilu = spla.spilu(seeded.T, permc_spec="MMD_AT_PLUS_A",
                     drop_tol=np.inf, diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})
    return rcm[np.argsort(ilu.perm_c)]


def build_system(pde, primal, dual, b_data, b_source) -> SaddleSystem:
    """Assemble the symmetric arrangement from the individual blocks and
    store it in its elimination order.

    The order is computed on the n mesh nodes (``_node_order``), not on
    the 2n unknowns, and each node's u and z sit side by side in it:
    ``order[0::2]`` is the node order and ``order[1::2]`` is
    ``order[0::2] + n``.  The quasi-definite matrix can be factored
    without pivoting in any symmetric order (Vanderbei, SIAM J. Optim. 5,
    1995), so ``solve`` factors the stored matrix in this order as it is.
    """
    n = pde.shape[0]
    for name, block in (("pde", pde), ("primal", primal), ("dual", dual)):
        if block.shape != (n, n):
            raise ValueError(f"{name} block has shape {block.shape}, "
                             f"expected {(n, n)}")
    if len(b_data) != n or len(b_source) != n:
        raise ValueError("right-hand side length mismatch")
    mat = sp.bmat([[primal, pde.T], [pde, -dual]], format="csr")
    nodes = _node_order(mat, n)
    order = np.empty(2 * n, dtype=nodes.dtype)
    order[0::2], order[1::2] = nodes, nodes + n
    stored = mat[order][:, order]
    stored.sort_indices()  # canonical: splu then leaves the arrays alone
    rhs = np.concatenate([b_data, b_source])
    return SaddleSystem(stored, rhs[order], n, order)


def _release_free_heap():
    """Hand the C heap's free pages back to the operating system.

    The arrays that assembly and ``build_system`` free lie between live
    ones on glibc's heap and stay resident, while SuperLU maps fresh
    memory for its factors; returned once per solve, before its first
    factorization and at every size, they do not add to the peak.  A
    no-op where the C library has no ``malloc_trim``.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


# SuperLU options: the stored order (the minimum degree order of
# build_system) and no pivoting, or COLAMD and pivoting.  Minimum degree
# must not run again on the stored numbering, where it fills far more
# (ex1-swirl N=256: 62.0M L+U entries against 37.2M)
_SPLU_OPTIONS = {
    "minimum_degree": {"permc_spec": "NATURAL",
                       "diag_pivot_thresh": 0.0,
                       "options": {"SymmetricMode": True}},
    "colamd": {},
}


@dataclass
class Solution:
    """Primal/dual pair with solver diagnostics.

    ``cond`` is the condition number ``solve`` was asked for, or ``None``.
    """

    u: FeFunction
    z: FeFunction
    diagnostics: dict
    cond: Optional[CondEstimate] = None


def _refined_solve(system: SaddleSystem, lu: spla.SuperLU):
    """LU solve and, if its relative residual exceeds 1e-12, one step of
    iterative refinement, which in working precision makes the LU solve
    backward stable (Skeel, Math. Comp. 35, 1980); returns (x, the
    relative residual after the solve and after the step, if taken)."""
    x = lu.solve(system.rhs)
    bnorm = np.linalg.norm(system.rhs)
    if bnorm == 0:
        return x, [0.0]
    r = system.rhs - system.matrix @ x
    history = [float(np.linalg.norm(r) / bnorm)]
    if history[0] > 1e-12:
        x = x + lu.solve(r)
        r = system.rhs - system.matrix @ x
        history.append(float(np.linalg.norm(r) / bnorm))
    return x, history


def _gated_solve(system: SaddleSystem):
    """Factors that pass the 1e-8 residual gate, and the solution.

    A matrix that is not symmetric bit for bit raises NumericalFailure
    unfactorized; otherwise the C heap's free pages are returned once,
    before the first factorization and at every size, so that what
    assembly and the ordering in ``build_system`` freed does not stay
    resident under the factors.  The matrix is first factorized as
    stored, in the minimum degree order that ``build_system`` gave it
    (SuperLU's ``NATURAL`` column order), without pivoting, which the
    quasi-definite matrix admits in any symmetric order (Vanderbei, SIAM
    J. Optim. 5, 1995) but its badly conditioned blocks can break; then in
    COLAMD order with partial pivoting.  Both factor the stored matrix,
    and x is in its numbering too.  An ordering that breaks down or misses
    the gate gives way to the next, its factors released first.  Returns
    (factors, x, diagnostics): the diagnostics name the ``ordering`` that
    passed (``"minimum_degree"`` or ``"colamd"``), its fill ``lu_nnz``,
    its ``refinement_steps`` (0 or 1) and the ``residual_history`` of its
    refined solve, whose last entry is ``relative_residual``.
    """
    t0 = time.perf_counter()
    defect = system.symmetry_defect()
    if defect != 0.0:
        raise NumericalFailure(f"saddle matrix is not symmetric: "
                               f"symmetry defect {defect:.3e}")
    _release_free_heap()
    t_factor, t_solve = time.perf_counter() - t0, 0.0
    for ordering in ("minimum_degree", "colamd"):
        lu = None  # release the factors that failed
        t0 = time.perf_counter()
        try:
            lu = spla.splu(system.matrix.T, **_SPLU_OPTIONS[ordering])
        except RuntimeError as exc:
            failure = NumericalFailure(f"factorization failed: {exc}")
            failure.__cause__ = exc
            continue
        finally:
            t_factor += time.perf_counter() - t0
        t0 = time.perf_counter()
        x, history = _refined_solve(system, lu)
        t_solve += time.perf_counter() - t0
        rel = history[-1]
        if rel <= 1e-8:
            # lu.nnz, not L.nnz + U.nnz: those properties copy the factors
            return lu, x, {"lu_nnz": int(lu.nnz), "ordering": ordering,
                           "relative_residual": rel,
                           "refinement_steps": len(history) - 1,
                           "residual_history": history,
                           "factor_seconds": t_factor,
                           "solve_seconds": t_solve}
        failure = NumericalFailure(
            f"relative residual {rel:.3e} exceeds 1e-8")
    raise failure


def solve(system: SaddleSystem, mesh: Mesh, cond: str = "none",
          cond_tol: float = 1e-3, cond_max_iter: int = 5000) -> Solution:
    """Direct sparse LU solve with iterative refinement.

    The factors must pass the 1e-8 relative-residual gate; see
    ``_gated_solve`` for the orderings tried and when NumericalFailure is
    raised.  ``factor_seconds`` covers the symmetry check, the heap trim
    and every try; the fill-reducing ordering is part of
    ``build_system``.

    ``cond`` adds the condition number as ``Solution.cond``: 'exact' by
    dense SVD, 'estimate' by ``estimate_condition_number`` (with
    ``cond_tol`` and ``cond_max_iter``) on the factors of the solve,
    'none' leaves it out.  An estimator setting out of range, or a system
    beyond DENSE_SVD_MAX_DIM for 'exact', raises ValueError before
    anything is factorized.
    """
    if cond not in ("none", "exact", "estimate"):
        raise ValueError(f"unknown cond mode {cond!r}")
    if cond == "estimate":
        _check_estimator(cond_tol, cond_max_iter)
    elif cond == "exact":
        _check_dense(system.matrix.shape[0])
    lu, stored_x, stats = _gated_solve(system)
    x = np.empty_like(stored_x)
    x[system.order] = stored_x
    diagnostics = {"dimension": 2 * system.n,
                   "nnz": int(system.matrix.nnz), **stats}
    kappa = None
    if cond == "exact":
        kappa = CondEstimate(exact_condition_number(system), converged=True)
    elif cond == "estimate":
        kappa = estimate_condition_number(system, lu, tol=cond_tol,
                                          max_iter=cond_max_iter)
    return Solution(FeFunction(mesh, x[:system.n]),
                    FeFunction(mesh, x[system.n:]), diagnostics, kappa)


# largest dimension exact_condition_number accepts: a dense SVD costs
# O(dim**3) time and O(dim**2) memory
DENSE_SVD_MAX_DIM = 2000


def _check_dense(dim: int):
    """Reject a system dimension beyond the dense SVD's
    DENSE_SVD_MAX_DIM."""
    if dim > DENSE_SVD_MAX_DIM:
        raise ValueError(f"dense SVD guarded to dimension "
                         f"{DENSE_SVD_MAX_DIM}, got {dim}")


def exact_condition_number(system: SaddleSystem) -> float:
    """Two-norm condition number by dense SVD, up to DENSE_SVD_MAX_DIM."""
    _check_dense(system.matrix.shape[0])
    svals = np.linalg.svd(system.matrix.toarray(), compute_uv=False)
    if svals[-1] == 0:
        raise NumericalFailure("system matrix is singular")
    return float(svals[0] / svals[-1])


@dataclass
class CondEstimate:
    """Condition number with convergence metadata.

    ``bracket`` holds the last two iterates of the condition estimate; it
    tracks progress, it is not a rigorous enclosure.  An exact value
    (dense SVD) is converged and leaves the other fields ``None``.
    """

    value: float
    converged: bool
    sigma_max: Optional[float] = None
    sigma_min: Optional[float] = None
    bracket: Optional[tuple] = None
    iterations: Optional[tuple] = None


def _check_estimator(tol, max_iter):
    """Reject a tolerance outside (0, 1) or an iteration cap below 1."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be an integer >= 1, "
                         f"got {max_iter!r}")


def _power_iteration(apply, v, tol, max_iter):
    """Power iteration on A^2 for a symmetric A, given as ``apply(w)`` =
    A w, from the unit vector v; returns (|A v| at the last unit iterate
    v, |A v| at the iterate before it or 0.0 after one step, iterations,
    converged)."""
    est = prev = 0.0
    for it in range(1, max_iter + 1):
        w = apply(v)
        s = np.linalg.norm(w)
        w = apply(w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0, 0.0, it, True
        v = w / nw
        prev, est = est, s
        if prev > 0 and abs(est - prev) <= tol * est:
            return est, prev, it, True
    return est, prev, max_iter, False


def estimate_condition_number(system: SaddleSystem, lu: spla.SuperLU,
                              tol: float = 1e-3,
                              max_iter: int = 5000) -> CondEstimate:
    """Estimate the two-norm condition number without dense linear algebra.

    M is symmetric (``solve`` refuses it otherwise), so its singular
    values are the |eigenvalues| and M^T M = M^2; one power iteration on
    A^2 serves both ends of the spectrum.  Run on M, it gives the largest
    singular value; run on M^-1, through ``lu``, sparse LU factors of the
    stored matrix (``solve`` passes those that passed its residual gate),
    it gives the inverse of the smallest.  Both start vectors are drawn in
    the natural (u, z) numbering from a generator seeded with 0 and then
    renumbered like the matrix, so the iterates do not depend on the
    stored numbering but for rounding.  ``tol`` is the relative change
    between iterates that counts as converged, in (0, 1), and
    ``max_iter`` >= 1 caps each iteration.  Hitting the cap leaves
    ``converged`` False; ``bracket`` then shows how far the last two
    iterates were apart.
    """
    _check_estimator(tol, max_iter)
    rng = np.random.default_rng(0)
    starts = []
    for _ in range(2):
        v = rng.standard_normal(system.matrix.shape[0])
        starts.append(v[system.order] / np.linalg.norm(v))
    smax, smax_prev, it_max, ok_max = _power_iteration(
        system.matrix.__matmul__, starts[0], tol, max_iter)
    inv, inv_prev, it_min, ok_min = _power_iteration(
        lu.solve, starts[1], tol, max_iter)
    converged = ok_max and ok_min
    smin = 1.0 / inv
    value = smax / smin
    lo = smax_prev * inv_prev
    bracket = (float(min(lo, value)), float(max(lo, value)))
    return CondEstimate(float(value), converged, float(smax), float(smin),
                        bracket, (it_max, it_min))
