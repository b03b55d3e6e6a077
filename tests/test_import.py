import ast
import os
import subprocess
import sys
from pathlib import Path

import wsfair


def _python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this wsfair."""
    env = dict(os.environ, PYTHONPATH=str(Path(wsfair.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    return out.stdout


def test_import_does_not_load_scipy():
    code = "import sys, wsfair; print('scipy' in sys.modules)"
    assert _python(code).strip() == "False"


def test_no_search_loads_scipy():
    # Both groups are above the Sinkhorn cap. The Sinkhorn map borrows votes
    # from its capped reference, the linear map from the whole other group.
    # 8-d and 16-d searches, whose leaf boxes rule out almost nothing, scan
    # too.
    code = """
import sys
import numpy as np
from wsfair import SbmConfig, gen_gaussian_pair_dataset, run_pipeline, transport

feats, groups, _, weak, _ = gen_gaussian_pair_dataset(5500, 0)
for ot_kind in ("sinkhorn", "linear"):
    cfg = SbmConfig(ot_kind=ot_kind, seed=0, sinkhorn_max_points=2000)
    audit = run_pipeline(feats, groups, weak, cfg).audit
    print(sum(d.rows_rewritten for d in audit.per_lf) > 0)
rng = np.random.default_rng(0)
for d in (8, 16):
    transport.nn_indices(rng.standard_normal((2000, d)), rng.standard_normal((5500, d)), 1)
print([m for m in sys.modules if m.startswith("scipy")])
"""
    sinkhorn, linear, loaded = _python(code).splitlines()
    assert sinkhorn == linear == "True"
    assert loaded == "[]"


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(Path(wsfair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
    if sys.version_info >= (3, 11):     # tomllib is new in 3.11
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["dependencies"] == ["numpy>=1.24"]
