"""The benchmark's layer spans still find the functions they wrap.

``perfbench/spans.py`` wraps library functions by module and name; a
function that is renamed, moved or called through a reference captured
at import time escapes its wrapper and its layer metric reads 0.  These
tests read the span table from that file without importing it.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from gennet.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _wraps() -> list:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no WRAPS table")


WRAPS = _wraps()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in WRAPS]
                         + [("gennet.convex", "ConvexSetNet.batched_projector")],
                         ids=lambda v: v)
def test_every_span_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module}.{attr} is gone"


def test_fem_command_enters_every_fem_span(tmp_path, monkeypatch):
    # each span target is looked up when it is called, so a wrapper put in
    # place after import sees the call
    entered = set()
    for module, attr, _ in WRAPS:
        owner = importlib.import_module(module)
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn, _name=f"{module}.{attr}", **kwargs):
            entered.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    cfg = tmp_path / "fem.json"
    cfg.write_text(json.dumps({"problem": {"interval": [0.0, 1.0], "n_elems": 8,
                                           "diffusion": 1.0, "rhs": 1.0}}))
    assert main(["solve-dirichlet", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert entered >= {
        "gennet.cli.solve_dirichlet", "gennet.fem._assemble_all", "gennet.fem._certificate",
        "gennet.fem._write_nodal_csv", "gennet.fem.h1_norm_net",
        "gennet.fem.lax_milgram_solve", "gennet.fem.valuation_estimate",
        "gennet.fem.is_moderate",
    }
