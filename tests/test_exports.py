import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import load_benchmark_module

import resbvp
import resbvp.cli
from resbvp.cli import RunConfig

# resbvp.__main__ runs the command line on import.
MODULES = [m.name for m in pkgutil.iter_modules(resbvp.__path__, "resbvp.") if m.name != "resbvp.__main__"]
SOURCES = sorted(p for p in Path(resbvp.__file__).parent.glob("*.py") if p.name != "__init__.py")
# Traced names whose function is already gone; the benchmark's table
# drops them when it is next re-baselined.
UNTRACEABLE = {"linops.kernel_basis"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_exports_each_layer():
    # The command line is the application, not a library layer.
    layers = [importlib.import_module(m) for m in MODULES if m != "resbvp.cli"]
    union = [n for layer in layers for n in layer.__all__]
    assert len(union) == len(set(union))
    assert set(resbvp.__all__) == set(union)
    assert all(getattr(resbvp, n) is getattr(layer, n) for layer in layers for n in layer.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_used(path):
    assert not _unused_imports(path.read_text(encoding="utf-8"))


def test_unused_import_is_caught():
    source = "from .resonance import boundary_functional, boundary_functional_power\nboundary_functional(1, 2)\n"
    assert _unused_imports(source) == ["boundary_functional_power (line 1)"]


# Two or more spaces before ": " pad a report label by hand.
_HAND_PADDED = re.compile(r"[^\s{] {2,}: ")


def _hand_padded(source: str) -> list[str]:
    """String literals of ``source``, f-string parts too, that pad a label by hand."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and _HAND_PADDED.search(node.value)
    ]


def test_cli_pads_no_report_label_by_hand():
    # Every ``label : value`` line of report.txt goes through cli._render.
    assert not _hand_padded(Path(resbvp.cli.__file__).read_text(encoding="utf-8"))


def _point_rule_callers(source: str) -> int:
    """Calls of ``frac_integral_at`` in ``source``, by name or through a module."""
    return sum(
        isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "frac_integral_at"
        for node in ast.walk(ast.parse(source))
    )


def test_only_resonance_knows_where_xi_sits():
    # resonance reads the boundary condition at xi through its one helper;
    # no other layer evaluates the quadrature at a point or names a node of xi.
    sources = {p.name: p.read_text(encoding="utf-8") for p in Path(resbvp.__file__).parent.rglob("*.py")}
    assert [name for name, text in sorted(sources.items()) if _point_rule_callers(text)] == ["resonance.py"]
    assert not [name for name, text in sources.items() if "xi_node" in text]


def test_point_rule_call_is_caught():
    source = "from . import fracops\nfracops.frac_integral_at(v, a, (1.0,))\nfrac_integral_at(v, a, (2.0,))\n"
    assert _point_rule_callers(source) == 2


def test_hand_padded_label_is_caught():
    source = 'lines = [f"rank                     : {rdata.rank}", f"{label:<{w}} : {text}"]\n'
    assert _hand_padded(source) == ["rank                     : "]


def test_cli_start_up_leaves_g17_unloaded():
    # g17's tables would add about 0.5 MB to every flow's peak RSS; the CLI
    # imports it when it writes solution.csv.  A fresh interpreter, since
    # this one has g17 loaded already.
    src = str(Path(resbvp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # Nor does start-up load fractions or decimal (about 2 ms and 0.4 MB).
    code = "import sys, resbvp.cli; print(sorted(m for m in sys.modules if m.startswith(('resbvp', 'fractions', 'decimal'))))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "resbvp.cli" in loaded.stdout
    assert "resbvp.g17" not in loaded.stdout
    assert "'fractions'" not in loaded.stdout and "'decimal'" not in loaded.stdout


def _traced_names() -> list[str]:
    """``<layer>.<function>`` of every entry in the benchmark's TRACED table."""
    return [f"{layer}.{name}" for layer, names in load_benchmark_module("tracing").TRACED.items() for name in names]


def test_every_workload_builds_its_run_config(tmp_path):
    # The benchmark builds each flow's inputs and RunConfig outside the
    # flow's error handling, so an exception here fails the whole run.
    workloads = load_benchmark_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        if workload.generated:
            workloads.write_affine_inputs(0, tmp_path / "input")
        cfg = workload.run_config(0, tmp_path / name, tmp_path / "input")
        assert isinstance(cfg, RunConfig) and cfg.command == workload.command, name


def test_every_workload_passes_its_output_checks(tmp_path):
    # One failed flow check fails a whole benchmark run.  Two flows per
    # workload, so the second also checks that solution.csv's bytes repeat.
    checks = load_benchmark_module("checks")
    workloads = load_benchmark_module("workloads")
    failed = {}
    for name, workload in workloads.WORKLOADS.items():
        reference, ref_csv = checks.load_reference(name)
        ctx = checks.FlowContext(name, workload.max_iter, reference=reference, ref_csv=ref_csv)
        inputs = tmp_path / name / "input"
        if workload.generated:
            ctx.affine = workloads.write_affine_inputs(0, inputs)
        for flow in range(2):
            out = tmp_path / name / f"flow-{flow}"
            failures, _ = checks.check_flow(ctx, resbvp.cli.run(workload.run_config(0, out, inputs)), out)
            if failures:
                failed[f"{name} flow {flow}"] = failures
    assert not failed


def test_every_traced_function_exists():
    # A traced function that is gone would read 0 calls in its per-layer
    # metric instead of failing.
    missing = []
    for span in _traced_names():
        layer, _, name = span.partition(".")
        if span not in UNTRACEABLE and not callable(getattr(importlib.import_module(f"resbvp.{layer}"), name, None)):
            missing.append(span)
    assert not missing


def _run_traced(configs: list[RunConfig]):
    """Exit codes of the flows run untraced and then traced, and the tracer.

    As in the benchmark, each flow runs once untraced between prepare and
    install, so a module a flow imports is loaded by then, and install
    fails on any traced function it binds.  run is called through its
    module: the tracer rebinds names inside resbvp only.
    """
    tracer = load_benchmark_module("tracing").Tracer()

    def run_all():
        codes = []
        for flow, cfg in enumerate(configs):
            tracer.flow = flow
            codes.append(resbvp.cli.run(cfg))
        return codes

    tracer.prepare()
    untraced = run_all()
    tracer.install()
    try:
        traced = run_all()
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def test_every_command_runs_traced(tmp_path):
    # The benchmark's traced runs wrap every traced function, so a call the
    # wrapper cannot pass through would crash them.
    commands = ("analyze", "solve", "check-hypotheses", "verify-example")
    configs = [RunConfig(command=c, builtin="section4", grid_n=64, out_dir=str(tmp_path / c)) for c in commands]
    untraced, traced, tracer = _run_traced(configs)
    assert untraced == traced == [0] * len(commands)
    spans = [tracer.flow_totals(flow)["cli.run"]["calls"] for flow in range(len(commands))]
    assert spans == [1] * len(commands)


def test_config_flows_run_traced(tmp_path):
    # solve-affine's path: parse_config, load_matrix_csv and the affine rhs.
    # Seed 0's margins fail, so check-hypotheses exits 1.
    workloads = load_benchmark_module("workloads")
    workloads.write_affine_inputs(0, tmp_path / "input")
    config = str(tmp_path / "input" / workloads.AFFINE_CONFIG)
    configs = [
        RunConfig(command="solve", config_path=config, max_iter=400, out_dir=str(tmp_path / "solve")),
        RunConfig(command="check-hypotheses", config_path=config, out_dir=str(tmp_path / "check-hypotheses")),
    ]
    untraced, traced, tracer = _run_traced(configs)
    assert untraced == traced == [0, 1]
    for flow in range(len(configs)):
        totals = tracer.flow_totals(flow)
        assert totals["cli.run"]["calls"] == 1
        assert totals["cli.parse_config"]["calls"] == 1 and totals["linops.load_matrix_csv"]["calls"] > 0
