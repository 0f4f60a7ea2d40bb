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


# veech bodies off the default config, pinned from a reduction of every
# axis grid sample: (max_length, step) -> digest
VEECH_BODIES = {
    ("5", "0.001"): "1cf321537387508b927464b6272ceec55c3a97ca2b70451ddb21beae127c09e9",
    ("6", "0.1"): "7b23d2c1b4731ccfbb00f1edd6600d4e6d3231a589ffe9dc6bfc8e8fb9552681",
    ("7.5", "0.02"): "39510f70b21a2b32626d54f69b118d498de3e609d0d5800fd626c80f1dbcb63a",
}


@pytest.mark.parametrize("max_length, step", sorted(VEECH_BODIES))
def test_veech_body_off_default(max_length, step):
    report = run(build_config("veech", overrides={"max_length": max_length,
                                                  "step": step}))
    assert _digest(report) == VEECH_BODIES[(max_length, step)]
