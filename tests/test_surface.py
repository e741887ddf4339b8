"""The package's public surface and the documentation that shows it.

``rsmeta.__all__`` is the paper's workflow and nothing else, so a name
added to the top level has to be added here on purpose; the demos and the
benchmark read nothing from the top level beyond it, and every Python
block of README.md runs as written.
"""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import rsmeta

ROOT = Path(__file__).resolve().parent.parent

SURFACE = sorted([
    # the sweep
    "ExperimentConfig", "SweepResult", "load_config", "run_sweep",
    "write_reports",
    # the optimizers and the types they return
    "run_meta_opt", "MetaOptConfig", "RunResult", "run_direct_adam",
    "run_fixed_direction", "FixedDirectionResult", "PowerSplit",
    "PrecoderMatrix",
    # the channels
    "IidCsitModel", "OneRingModel", "ChannelEnsemble",
    # the layout, seeding and scoring
    "StreamLayout", "RngStream", "saf_report", "SafReport", "gradcheck_suite",
    # names the demos read
    "gaussian_matrix", "herm_eig", "one_ring_correlation", "init_precoder",
    "sinr_triplet",
])

# internal to their modules, where each still imports under its name
INTERNAL = [
    ("adam", "AdamState"), ("adam", "adam_step"),
    ("network", "MetaNetParams"), ("network", "init_meta_net"),
    ("network", "mlp_forward"), ("gradcheck", "finite_diff_check"),
    ("linalg", "svd_dominant"), ("gradients", "view_length"),
    ("gradients", "precoder_to_view"), ("gradients", "view_to_precoder"),
    ("gradients", "grad_wrt_precoder"), ("gradients", "grad_wrt_theta"),
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(rsmeta.__path__))


def test_all_is_the_method():
    assert len(SURFACE) == 26
    assert sorted(rsmeta.__all__) == SURFACE


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rsmeta import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == SURFACE


@pytest.mark.parametrize("module, name", INTERNAL,
                         ids=[f"{m}.{n}" for m, n in INTERNAL])
def test_internal_name_stays_in_its_module(module, name):
    mod = importlib.import_module(f"rsmeta.{module}")
    assert name in mod.__all__
    assert name not in rsmeta.__all__


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"rsmeta.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _top_level_reads(path: Path) -> set:
    """Names that ``path`` reads from ``rsmeta`` itself: ``rsmeta.<name>``
    and ``from rsmeta import <name>``, dunders aside."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "rsmeta":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "rsmeta" \
                and not node.level:
            names.update(alias.name for alias in node.names)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix()
    for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py")))
def test_demos_and_bench_read_only_all(path):
    assert _top_level_reads(ROOT / path) - set(rsmeta.__all__) == set()


def test_readme_lists_all():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library surface\n", 1)[1]
    groups = section.split("\n\n")[1]  # the bulleted list of five groups
    assert sorted(re.findall(r"`(\w+)`", groups)) == SURFACE


def test_readme_python_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
