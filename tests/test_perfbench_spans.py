"""The traced benchmark run wraps every function its per-layer metrics sum.

``perfbench/spans.py`` is imported read-only.  Its ``Tracer.install``
raises ``LookupError`` ("not wrapped, so not measured") when a function
that ``SPAN_METRICS`` names is renamed, moved or dropped from its
module's ``__all__``; this test makes such an API change fail here first.
"""

import importlib.util
import sys
from pathlib import Path

import ucfem.experiments as experiments
import ucfem.forms as forms

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_tree():
    spans = _load_spans()
    original = forms.assemble_all
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        # wrapped where it is defined and where experiments binds it
        assert forms.assemble_all is not original
        assert experiments.assemble_all is forms.assemble_all
    finally:
        tracer.uninstall()
    assert forms.assemble_all is original
    assert experiments.assemble_all is original
