"""How ``tools/compare_outputs.py --rtol`` measures a moved JSON number."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _texts(old, new):
    return (json.dumps(old, indent=2).encode(),
            json.dumps(new, indent=2).encode())


def test_json_list_entries_are_relative_to_the_largest_in_the_list():
    tool = _load_tool()
    # a slope near zero moved by 3.4e-9: 5.6e-8 of itself, 2.5e-8 of the
    # list's largest magnitude
    old = {"per_step": [-0.1355, 0.0599646], "slope": -0.035}
    new = {"per_step": [-0.1355, 0.0599646 - 3.4e-9], "slope": -0.035}
    diff = tool.max_json_diff(*_texts(old, new))
    assert math.isclose(diff, 3.4e-9 / 0.1355, rel_tol=1e-6)
    assert tool.max_rel_diff(*_texts(old, new)) > 5e-8


def test_json_scalars_and_errors_keep_their_rules():
    tool = _load_tool()
    old = {"cond": 4.0, "rows": [{"cond": 2.0}, {"cond": 400.0}],
           "relative_residual": 1e-13, "residual_history": [1e-12, 1e-13]}
    new = {"cond": 4.0 * (1 + 1e-9), "rows": [{"cond": 2.0 * (1 + 2e-9)},
                                              {"cond": 400.0}],
           "relative_residual": 3e-13, "residual_history": [2e-12, 3e-13]}
    # numbers in dicts inside a list are scalars: 2e-9 of themselves
    assert math.isclose(tool.max_json_diff(*_texts(old, new)), 2e-9,
                        rel_tol=1e-6)
    # relative errors are compared absolutely, the history as well
    old["residual_history"] = [1e-12, 1e-13]
    new["residual_history"] = [1e-12 + 5e-9, 3e-13]
    assert math.isclose(tool.max_json_diff(*_texts(old, new)), 5e-9,
                        rel_tol=1e-6)


def test_json_text_that_differs_outside_its_numbers_is_infinitely_off():
    tool = _load_tool()
    assert tool.max_json_diff(*_texts({"ordering": "minimum_degree"},
                                      {"ordering": "colamd"})) == math.inf
    assert tool.max_json_diff(b"[NaN, 1.0]", b"[NaN, 1.0]") == 0.0
