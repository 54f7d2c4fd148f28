"""Every demo runs to completion: each script exits 0 in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a coarser anchor grid than envelope_band's default keeps the run short
ARGS = {"envelope_band.py": ["--step", "0.05"]}


def test_every_demo_is_covered():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    args = ARGS.get(demo.name, [])
    if demo.name == "cli_campaign.py":
        args = ["--workdir", str(tmp_path / "campaign")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
