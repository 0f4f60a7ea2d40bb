"""Report bodies against the sha256 digests pinned in perfbench/golden.json.

Each digest covers to_text(deterministic_only=True) without its 'seed ='
line.  Seed-independent experiments run at default config, the seeded
ones at the pinned seed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from geodlab.cli import run
from geodlab.config import build_config

GOLDEN = json.loads((Path(__file__).resolve().parents[1]
                     / "perfbench" / "golden.json").read_text())


def _digest(report) -> str:
    body = "".join(line for line in
                   report.to_text(deterministic_only=True).splitlines(True)
                   if not line.startswith("seed = "))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("experiment", sorted(GOLDEN["seed_independent"]))
def test_seed_independent_body(experiment):
    report = run(build_config(experiment))
    assert _digest(report) == GOLDEN["seed_independent"][experiment]


@pytest.mark.parametrize("experiment", sorted(GOLDEN["seeded"]))
def test_seeded_body(experiment):
    report = run(build_config(experiment,
                              overrides={"seed": GOLDEN["pinned_seed"]}))
    assert _digest(report) == GOLDEN["seeded"][experiment]
