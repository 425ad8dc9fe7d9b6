"""The per-layer tracer in perfbench/ wraps the framedvs names listed in
its TARGETS table when it starts, so each of them must exist. Some are
imported only for it (cli.danger_zones, cli.run_frames, cli._stats,
simulator.danger_zones); this test catches their removal without running
the benchmark."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    """(owner expression, attribute) pairs, read from TARGETS without importing."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return [(ast.unparse(e.elts[0]), ast.literal_eval(e.elts[1])) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py has no TARGETS table")


def test_tracer_targets_resolve_in_framedvs():
    targets = tracer_targets()
    assert len(targets) > 30
    missing = []
    for owner, attr in targets:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"framedvs.{module}")
        for name in path:
            obj = getattr(obj, name)
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"tracer targets missing from framedvs: {missing}"
