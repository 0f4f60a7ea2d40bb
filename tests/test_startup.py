"""What a fresh interpreter imports and faults in, checked in subprocesses.

Start-up imports numpy, the command line, config and report; building a
config adds the one layer that owns the experiment, so a run imports
nothing more.  scipy's QUADPACK extension is loaded from its file on the
first quadrature, without scipy.integrate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str, *args: str):
    """The JSON value the code prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


_RUN = """
import json, sys
import geodlab.cli
from geodlab.config import build_config
config = build_config(sys.argv[1], overrides=json.loads(sys.argv[2]))
before = set(sys.modules)
geodlab.cli.run(config).to_text()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_layer_numpy_random_or_scipy():
    mods = _python("import json, sys; import geodlab.cli; "
                   "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in mods if m.startswith("geodlab.")] == [
        "geodlab.cli", "geodlab.config", "geodlab.report"]
    assert "numpy.random" not in mods
    assert [m for m in mods if m.split(".")[0] == "scipy"] == []
    assert "argparse" not in mods  # only cli.main parses arguments


# the geodlab modules loaded once build_config(experiment) returns: the
# module that owns the experiment and what it imports; and whether
# numpy.random is loaded, which only the seeded runners' modules import
_WORDS = ["config", "halfplane", "torus", "words"]
_WALK = ["config", "halfplane", "report", "walk"]
_FLOW = ["config", "flow", "halfplane", "report", "torus", "words"]
_CONFIG_LOADS = {
    "count": (_WORDS, False), "assemble": (_WORDS, False),
    "veech": (_WORDS, False),
    "walk": (_WALK, False), "thin": (_WALK, False),
    "recurrence": (_FLOW, True), "mix": (_FLOW, True),
    "close": (_FLOW, True),
    "lattice": (["config", "halfplane", "lattice", "torus"], False),
    "bias-verify": (["config", "halfplane", "products", "torus"], True),
}


@pytest.mark.parametrize("experiment", sorted(_CONFIG_LOADS))
def test_config_loads_only_the_owning_layer(experiment):
    loaded = _python("""
import json, sys
from geodlab.config import build_config
build_config(sys.argv[1])
print(json.dumps([sorted(m.split(".")[1] for m in sys.modules
                         if m.startswith("geodlab.")),
                  "numpy.random" in sys.modules]))
""", experiment)
    assert loaded == list(_CONFIG_LOADS[experiment])


@pytest.mark.parametrize("experiment", ["recurrence", "count", "assemble",
                                        "lattice", "walk", "thin", "veech"])
def test_run_imports_nothing(experiment):
    assert _python(_RUN, experiment, "{}") == []


def test_bias_verify_run_loads_only_the_quadpack_extension():
    # the extension's callback wrapper imports scipy._lib._ccallback on its
    # first call, and with it the scipy package itself: those modules and
    # the extension are all the run may add to what its config loaded
    overrides = json.dumps({"tau_grid": "2, 3", "samples": "1000"})
    callback = _python("import json, sys; import geodlab.cli; "
                       "from geodlab.config import build_config; "
                       "build_config('bias-verify', "
                       "overrides=json.loads(sys.argv[1])); "
                       "before = set(sys.modules); "
                       "import scipy._lib._ccallback; "
                       "print(json.dumps(sorted(set(sys.modules) - before)))",
                       overrides)
    added = _python(_RUN, "bias-verify", overrides)
    assert set(added) == set(callback) | {"scipy.integrate._quadpack"}
    assert not [m for m in added if m.startswith(("scipy.integrate.",
                                                  "scipy.special"))
                and m != "scipy.integrate._quadpack"]
    assert "scipy.integrate" not in added


_ORDER = """
import json, math, sys
from geodlab import products
if sys.argv[1] == "scipy-first":
    import scipy.integrate
value = products.contraction_ratio_exact(3.0)
if sys.argv[1] == "direct-first":
    assert "scipy.integrate" not in sys.modules
    import scipy.integrate
ext = sys.modules["scipy.integrate._quadpack"]
quad = scipy.integrate.quad(math.cos, 0.0, 1.0)[0]
print(json.dumps([value.hex(), ext._qagse is products._qagse(),
                  scipy.integrate._quadpack_py._quadpack is ext,
                  quad == math.sin(1.0)]))
"""


def test_both_import_orders_share_one_extension():
    direct = _python(_ORDER, "direct-first")
    scipy_first = _python(_ORDER, "scipy-first")
    assert direct[1:] == scipy_first[1:] == [True, True, True]
    assert direct[0] == scipy_first[0]


def _faults(setup: str, measured: str) -> int:
    """The minor page faults that the measured code takes after the setup
    code, in a fresh interpreter that imports no scipy."""
    pytest.importorskip("resource")
    faults, scipy = _python(f"""
import json, resource, sys
{setup}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{measured}
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([faults, [m for m in sys.modules if m.startswith("scipy")]]))
""")
    assert scipy == []
    return faults


def test_axis_kernel_allocates_nothing_block_sized():
    # every block of min_systole_batch reduces in the work area the batch
    # owns; block-sized temporaries would be handed back to the system and
    # faulted in again block after block (18,847 faults on the second call
    # of one padded table at R = 6 when each block allocated its own).
    # veech's calls, one per word length, take 882 on their second round
    assert _faults("""
from geodlab.words import class_levels, max_trace, min_systole_batch
levels = list(class_levels(max_trace(6.0), True))
for level in levels:
    min_systole_batch(level)
""", """
for level in levels:
    min_systole_batch(level)
""") < 1500


def test_default_veech_run_faults_in_few_pages():
    # a whole default veech run, read one word length at a time, takes
    # 1,834 faults; through one sorted, padded table it took 4,049
    assert _faults("""
import geodlab.cli
from geodlab.config import build_config
config = build_config("veech")
""", "geodlab.cli.run(config).to_text()") < 2500
