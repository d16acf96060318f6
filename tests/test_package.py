import os
import subprocess
import sys
from pathlib import Path

import neurocut


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(neurocut.__file__).resolve().parents[1])}
    code = "import sys, neurocut; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
