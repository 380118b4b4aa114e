"""Test helper: every form of ``assemble_all``, with zeros standing in for
a source term or data that a test does not need."""

import dataclasses

import numpy as np

from ucfem.fem import FeFunction
from ucfem.forms import assemble_all


def _zero(points):
    return np.zeros(len(np.atleast_2d(points)))


def assembled(spec, mesh, data=None, degree=4):
    """``assemble_all`` with a zero ``f`` when ``spec`` has none and zero
    data when ``data`` is None."""
    if spec.f is None:
        spec = dataclasses.replace(spec, f=_zero)
    if data is None:
        data = FeFunction(mesh, np.zeros(mesh.n_nodes))
    return assemble_all(spec, mesh, data, degree)
