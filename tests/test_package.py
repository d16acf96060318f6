import os
import re
import subprocess
import sys
from pathlib import Path

import neurocut


def _loaded_by_import(*packages):
    """Modules of the given top-level packages that `import neurocut` loads in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(neurocut.__file__).resolve().parents[1])}
    code = f"import sys, neurocut; print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_by_import("scipy") == "[]"


def test_import_loads_no_process_pool():
    # only run_experiment with jobs > 1 needs the pool, so it imports it there
    assert _loaded_by_import("concurrent", "multiprocessing") == "[]"


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    quickstart = re.search(r"^## Quickstart\n\n```python\n(.*?)^```", readme,
                           flags=re.MULTILINE | re.DOTALL).group(1)
    assert quickstart in blocks
    for block in blocks:
        names: dict = {}
        exec(compile(block, "README.md", "exec"), names)
        if block == quickstart:
            # cuts of g cannot beat its exact optimum; the best of 4096 hyperplane
            # roundings is at least the Goemans-Williamson 0.878 share of it
            opt = names["opt"]
            assert 0.878 * opt <= names["best"] <= opt
            assert 0 < names["spectral"] <= opt
