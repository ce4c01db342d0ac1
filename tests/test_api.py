"""The public surface: every exported name resolves, the entry point runs."""

import os
import subprocess
import sys
from pathlib import Path

import secnc

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in secnc.__all__ if not hasattr(secnc, name)]
    assert not missing
    assert len(set(secnc.__all__)) == len(secnc.__all__)


def test_module_help_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "secnc", "--help"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: secnc" in proc.stdout
