import os
import re
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


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
