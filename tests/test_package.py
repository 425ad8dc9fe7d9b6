"""The package surface: ``framedvs`` exports exactly its modules' ``__all__`` lists,
each export has a caller or a stated reason, and the README's library example runs."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import framedvs
from framedvs import (
    cli, config, core, oracle, schedulability, simulator, strategies, svgchart, workload,
)

MODULES = (core, workload, schedulability, strategies, simulator, oracle)
# modules outside the package namespace whose exports the caller rule also covers
UNEXPORTED = (config, cli, svgchart)
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "framedvs").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Exports that nothing in src/ or perfbench/ calls, each with why it stays.
KEPT = {
    "monte_carlo": "library entry point of the README example",
    "run_frame": "library entry point: one frame, every finish time",
    "exact_expectation": "exact reference the Monte Carlo estimates are tested against",
    "build_soft_speed": "the flat route for a relaxed deadline, beside simulate's soft_eps",
    "bin_trace": "trace ingestion, as the README describes",
    "read_trace": "trace ingestion, as the README describes, together with bin_trace",
    "write_histogram_csv": "writes the histogram_file format that read_histogram_csv reads",
    "experiment_to_dict": "the inverse of experiment_from_dict, which the tests round-trip",
}

PUBLIC = [
    "BetaVector", "CapExceededError", "CheckReport", "ContinuousRule", "CycleDistribution",
    "DangerZones", "FrameDvsError", "FrameResult", "FrameSystem", "FrequencyTable",
    "InfeasibleSystemError", "SimStats", "SoftDeadlineResult",
    "SpeedRangeError", "StepFunction", "StrategySet", "SweepCell", "SweepTable", "TaskSpec",
    "Violation", "WorstCaseReport", "bin_trace", "build_limit", "build_soft_speed", "check",
    "convolve", "danger_zones", "danger_zones_overhead", "discretize", "dpms_rule",
    "eval_step", "evaluate", "exact_expectation", "limit", "limit_rule", "monte_carlo",
    "normalize_steps", "pitdvs_rule", "quantize", "run_frame", "run_frames",
    "soft_deadline", "sweep_deadlines", "worst_finish_oracle",
]


def test_exports_are_the_module_lists():
    assert sorted(framedvs.__all__) == sorted(PUBLIC)
    assert len(framedvs.__all__) == len(set(framedvs.__all__))
    assert framedvs.__all__ == [name for m in MODULES for name in m.__all__]


def test_each_export_is_its_defining_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(framedvs, name) is getattr(m, name), name


def test_init_restates_no_name():
    tree = ast.parse(Path(framedvs.__file__).read_text())
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for a in n.names}
    assert not (strings | aliases) & set(PUBLIC)


def _framedvs_reads(path: Path) -> set[str]:
    """framedvs names one file reads, outside the definition of the same name.

    A bare name counts where the file imports it from framedvs or defines it at
    top level; ``m.name`` counts where ``m`` was imported from framedvs. Local
    variables that share an export's name do not count, nor do strings.
    """
    tree = ast.parse(path.read_text())
    bound, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("framedvs")):
            names = {a.asname or a.name for a in node.names}
            bound |= names
            modules |= names
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.startswith("framedvs")}
    defs = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    bound |= defs
    reads = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in bound:
                name = node.id
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                name = node.attr
            else:
                continue
            if name != getattr(top, "name", None):
                reads.add(name)
    return reads


def test_every_export_has_a_caller_or_a_reason():
    reads = set().union(*map(_framedvs_reads, SOURCES))
    exports = set(framedvs.__all__).union(*(m.__all__ for m in UNEXPORTED))
    uncalled = exports - reads
    assert not uncalled - KEPT.keys(), "exports with no caller and no reason in KEPT"
    assert not KEPT.keys() - uncalled, "KEPT names that now have a caller or are gone"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
