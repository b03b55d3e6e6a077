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
    # scipy backs only the k-d tree neighbor search and is imported on its first use.
    code = "import sys, wsfair; print('scipy' in sys.modules)"
    assert _python(code).strip() == "False"


def test_only_a_destination_above_the_cap_loads_scipy():
    # Both groups are above the Sinkhorn cap. The Sinkhorn map borrows votes
    # from its capped reference, the linear map from the whole other group;
    # the clouds overlap, so the scan skips most of that group, and neither
    # loads scipy. An 8-d search above the cap skips almost nothing: its scan
    # would keep more than the cap's pairs per source row, so it goes to the
    # k-d tree.
    code = """
import sys
import numpy as np
from wsfair import SbmConfig, gen_gaussian_pair_dataset, run_pipeline, transport
from wsfair.transport import SINKHORN_MAX_POINTS

feats, groups, _, weak, _ = gen_gaussian_pair_dataset(SINKHORN_MAX_POINTS + 500, 0)
for ot_kind in ("sinkhorn", "linear"):
    cfg = SbmConfig(ot_kind=ot_kind, seed=0, sinkhorn_max_points=2000)
    audit = run_pipeline(feats, groups, weak, cfg).audit
    print(sum(d.rows_rewritten for d in audit.per_lf) > 0,
          [m for m in sys.modules if m.startswith("scipy")] == [])
rng = np.random.default_rng(0)
src, dst = rng.standard_normal((2000, 8)), rng.standard_normal((SINKHORN_MAX_POINTS + 500, 8))
center = dst.mean(axis=0)
budget = len(src) * SINKHORN_MAX_POINTS
print(transport._scan_nn(src - center, dst - center, 1, budget) is None,
      "scipy.spatial" in sys.modules)
transport.nn_indices(src, dst, 1)
print("scipy.spatial" in sys.modules)
"""
    sinkhorn, linear, over_budget, tree = _python(code).splitlines()
    assert sinkhorn == linear == "True True"
    assert over_budget == "True False"
    assert tree == "True"
