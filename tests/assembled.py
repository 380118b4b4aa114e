"""Test helper: every form of ``assemble_all``, with a zero source term
standing in when a test does not need one."""

import dataclasses

import numpy as np

from ucfem.forms import assemble_all


def _zero(points):
    return np.zeros(len(np.atleast_2d(points)))


def assembled(spec, mesh):
    """``assemble_all`` with a zero ``f`` when ``spec`` has none."""
    if spec.f is None:
        spec = dataclasses.replace(spec, f=_zero)
    return assemble_all(spec, mesh)
