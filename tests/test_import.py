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
    # from its capped reference, which is scanned; the linear map borrows from
    # the whole other group, which goes to the k-d tree.
    code = """
import sys
from wsfair import SbmConfig, gen_gaussian_pair_dataset, run_pipeline
from wsfair.transport import SINKHORN_MAX_POINTS

feats, groups, _, weak, _ = gen_gaussian_pair_dataset(SINKHORN_MAX_POINTS + 500, 0)
for ot_kind in ("sinkhorn", "linear"):
    cfg = SbmConfig(ot_kind=ot_kind, seed=0, sinkhorn_max_points=2000)
    audit = run_pipeline(feats, groups, weak, cfg).audit
    print(sum(d.rows_rewritten for d in audit.per_lf) > 0,
          [m for m in sys.modules if m.startswith("scipy")] == [],
          "scipy.spatial" in sys.modules)
"""
    sinkhorn, linear = _python(code).splitlines()
    assert sinkhorn == "True True False"
    assert linear == "True False True"
