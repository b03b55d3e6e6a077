import os
import subprocess
import sys
from pathlib import Path

import wsfair


def test_import_does_not_load_scipy():
    # scipy backs only the neighbor search and is imported on its first use.
    env = dict(os.environ, PYTHONPATH=str(Path(wsfair.__file__).resolve().parents[1]))
    code = "import sys, wsfair; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
