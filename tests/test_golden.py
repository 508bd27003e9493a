"""Byte pins: output that no refactor may move.

Each digest is the sha256 of bytes the simulator writes: the CSV of a
small experiment, or one serialized probe transcript. The main and aux
addresses in a transcript print sketch hex, so these pins also cover the
sketch values, their width and their digit order. A digest changes only
when the output does; update one only with a documented decision to
change the output format or the coin.
"""

import dataclasses
import hashlib

import pytest

from annsim.alg_general import run_general
from annsim.alg_simple import run_simple
from annsim.core import Params
from annsim.harness import DatasetSpec, ExperimentConfig, run_experiment, trial_instance
from annsim.probe_engine import ProbeSession
from annsim.randomness import coin_for_trial

SEED = 2718


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (ExperimentConfig(algo="simple", n=64, d=128, gamma=4.0, k=2, trials=6, seed=SEED),
         "7977888f45334280c8e81a460c5009cd4b4e61d4fc2641a9542980ee07611e34"),
        (ExperimentConfig(algo="general", n=64, d=128, gamma=2.0, k=8, trials=4, seed=SEED,
                          override=(2, 4)),
         "11fa190a0330ac480ee60f36da6bad51a404dd0ba7c388feb1ee53a8fd9a5d9d"),
        (ExperimentConfig(algo="near", n=64, d=128, gamma=4.0, k=1, trials=6, seed=SEED,
                          lam=30.0),
         "3403e2c18a3499a8cdb7e83ed15b448cf2d40533b760a409dce458288e4b3d12"),
    ],
    ids=["simple", "general", "near"],
)
def test_csv_bytes(cfg, digest, tmp_path):
    out = tmp_path / "records.csv"
    run_experiment(dataclasses.replace(cfg, out=str(out)))
    assert cfg.check_assumptions
    assert sha256(out.read_bytes()) == digest


def instance():
    return trial_instance(SEED, 0, 64, 128, DatasetSpec())


def test_simple_transcript_bytes():
    db, x = instance()
    params = Params(n=64, d=128, gamma=4.0, k=2)
    session = ProbeSession(db, coin_for_trial(SEED, 0, 0), params)
    run_simple(x, session)
    text = session.close().serialize()
    assert "main:" in text
    assert sha256(text.encode()) == "40bb40c4d6d6737cfd0d2a7ffa35d63126fd1edf3b8010041cc6f9460e4f210f"


def test_general_transcript_bytes():
    db, x = instance()
    params = Params(n=64, d=128, gamma=2.0, k=8, s=2.0, tau=4)
    session = ProbeSession(db, coin_for_trial(SEED, 0, 0), params)
    run_general(x, session)
    text = session.close().serialize()
    assert "main:" in text and "aux:" in text
    assert sha256(text.encode()) == "79ac8067f3b6c1cc55d82d1a0dbc05ab85ef11b5e9983a38ffb040a7aa2e220f"
