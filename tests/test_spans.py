"""Every span target of the benchmark tracer (perfbench/spans.py) resolves
in the package the way ``Tracer.install`` looks it up: a method from its own
class's ``__dict__``, a module-level function as a module attribute.  A
refactor that moves or renames a traced function fails here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_span_target_resolves():
    targets = load_targets()
    assert targets
    unresolved = []
    for span, module, path, _, _ in targets:
        mod = importlib.import_module(f"vlie.{module}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            target = vars(owner).get(attr) if owner is not None else None
        else:
            target = getattr(mod, attr, None)
        if not callable(target):
            unresolved.append(f"{span}: vlie.{module}.{path}")
    assert unresolved == []
