"""The package's public surface: its export list, the demos built on it, and the
module that owns the packed-word format."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import annsim

ROOT = Path(__file__).resolve().parent.parent
REMOVED = ["open_session", "probe_round", "close_session", "SearchState", "EMPTY",
           "DataPoint", "SmallInt", "SketchVector", "NearAnswer", "NO", "SearchTrace",
           "GeneralParams", "override_params", "is_gamma_approx", "save_database",
           "load_database", "scale_count", "tau_simple", "delta_threshold"]
DEMOS = ["near_neighbor", "phased_search", "round_tradeoff", "sketch_separation"]


def test_every_export_resolves_once():
    assert len(set(annsim.__all__)) == len(annsim.__all__)
    assert [name for name in annsim.__all__ if not hasattr(annsim, name)] == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in annsim.__all__
    assert not hasattr(annsim, name)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 0, res.stdout + res.stderr


# The conversions between uint64 words, bits, bytes and Python integers.
CODEC_CALLS = {"packbits", "unpackbits", "from_bytes", "to_bytes"}


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "annsim").glob("*.py")))
def test_only_core_converts_the_packed_word_format(module):
    tree = ast.parse((ROOT / "src" / "annsim" / module).read_text())
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "") for f in funcs}
    # core calls all four, which shows that the scan finds them.
    assert called & CODEC_CALLS == (CODEC_CALLS if module == "core.py" else set())
