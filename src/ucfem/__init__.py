"""Stabilized P1 finite elements for data assimilation in
convection-diffusion problems on the unit square.

The package solves the ill-posed unique-continuation problem: recover the
solution of -mu*laplace(u) + beta.grad(u) = f on the whole domain from
measurements restricted to a subregion, without boundary conditions, by
minimizing a data misfit subject to the PDE with consistent primal/dual
stabilization.

The package itself exports only ``__version__``; callers import from the
submodules: ``mesh``, ``fem``, ``forms``, ``saddle``, ``experiments``,
``stability`` and ``cli``.
"""

__version__ = "0.1.0"
