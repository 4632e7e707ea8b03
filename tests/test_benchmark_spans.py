"""The benchmark's tracer wraps only functions that the package still has.

`perfbench/spans.py` names (module, function) pairs that `Tracer.install`
looks up with `getattr`; a renamed or deleted one would end a traced run
with an AttributeError. The file is read, never imported as a module, so
no bytecode cache is written next to it.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    spans = runpy.run_path(str(SPANS))
    traced = [*spans["SPANNED"], *spans["FOLDED"]]
    assert ("grid", "sweep_collides") in traced
    for module_name, func_name in traced:
        module = importlib.import_module(f"polylock.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)
