"""The demos run to the end and print what they printed when these pins
were recorded, so that a renamed or removed library name cannot break a
demo unseen. Demo 02 is left out: it takes about 11 s."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = [
    ("01_single_step_dynamics", "8d66602a51be228845db7bc436ee2a6a94302f435bb5fa1f1f1f10897337463b"),
    ("03_time_varying_schedules", "81c63ce3fe9fb938c9f18649d06a9cffd0465ab01b9a032d9ecfff299df1a240"),
    ("04_averaging_oracle", "ad583cf0f78bfea159d7e3ac32e83318ef99c129f755391f33adb773cdbe4c0a"),
    ("05_susceptibility_comparison", "421491ceef01c842ad419d66e62cc3aae282627ae54c4e3b5304a9fa1bcab152"),
]


@pytest.mark.parametrize("demo,stdout_sha256", DEMO_STDOUT_SHA256)
def test_demo_output_is_unchanged(demo, stdout_sha256):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == stdout_sha256
