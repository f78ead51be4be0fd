"""networkx stays off the runtime import path.

networkx is optional: only ``to_networkx`` and ``k_regular_graph``'s
last-resort fallback import it, when they run.  A campaign process
therefore never loads its ~320 modules.  Each test runs in a fresh
interpreter, because the test session may already have imported networkx
for the cross-check tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Both benchmark campaigns, tiny, through the CLI entry point.
CAMPAIGNS = r"""
from repro.runner import cli

for argv in (
    ["run", "resilience-at-scale", "--set", "n=300", "--set", "checkpoints=3"],
    ["run", "soap-at-scale", "--set", "n=400"],
):
    code = cli.main(argv + ["--trials", "1", "--seed", "0", "--quiet",
                            "--no-cache", "--no-journal"])
    if code != 0:
        raise SystemExit(f"{argv[1]} exited {code}")
"""

#: What a loaded networkx would leave behind in ``sys.modules``.
LOADED = r"""
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "networkx" and module is not None)
if loaded:
    raise SystemExit(f"networkx modules loaded: {loaded[:5]}")
"""


def _python(script: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_campaigns_run_with_networkx_unimportable():
    # A None entry in sys.modules makes every import of networkx raise.
    script = (
        'import sys\nsys.modules["networkx"] = None\nimport repro\n'
        + CAMPAIGNS
        + LOADED
    )
    done = _python(script)
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_no_networkx():
    # networkx importable here: nothing may import it quietly either.
    done = _python("import sys\nimport repro.runner.cli\n" + LOADED)
    assert done.returncode == 0, done.stderr
