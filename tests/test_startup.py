"""What each entry point imports, checked in a fresh interpreter.

The offline commands run on Python ints: importing dccsim.cli, every
`build`, and `verify` at t >= 2 load neither numpy nor the simulator.
`verify` at t = 1 loads numpy for its 2^15 cleanability scan alone. The
simulator's own import loads the modules it runs and no more.
"""

import json
import os
import pathlib
import subprocess
import sys

import dccsim

SRC = str(pathlib.Path(dccsim.__file__).resolve().parent.parent)
SIMULATOR = ("numpy", "dccsim.protocol", "dccsim.decoder", "dccsim.noise")

OFFLINE = """
import json, sys
SIMULATOR = {simulator!r}

def loaded():
    return [name for name in SIMULATOR if name in sys.modules]

from dccsim import cli
seen = {{"import dccsim.cli": loaded()}}
for t in (1, 2, 3, 4):
    assert cli.main(["build", "--t", str(t), "--out", f"{tmp}/t{{t}}.json"]) == 0
    seen[f"build --t {{t}}"] = loaded()
for t in (2, 4, 1):
    assert cli.main(["verify", f"{tmp}/t{{t}}.json"]) == 0
    seen[f"verify t = {{t}}"] = loaded()
print(json.dumps(seen))
"""

SIMULATE = """
import sys
before = set(sys.modules)
import dccsim.protocol
new = sorted(set(sys.modules) - before)
import json
print(json.dumps(new))
"""


CLI_IMPORT = """
import json, sys
import dccsim.cli
print(json.dumps([name for name in ("hashlib", "csv") if name in sys.modules]))
"""


def run_fresh(code: str) -> object:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_offline_commands_load_no_simulator(tmp_path):
    seen = run_fresh(OFFLINE.format(simulator=SIMULATOR, tmp=tmp_path))
    expected = {key: [] for key in seen}
    expected["verify t = 1"] = ["numpy"]
    assert seen == expected


def test_simulator_import_loads_what_it_runs():
    new = run_fresh(SIMULATE)
    dccsim_modules = {name for name in new if name.startswith("dccsim")}
    assert dccsim_modules == {"dccsim", "dccsim.codefamily", "dccsim.csscode", "dccsim.decoder",
                              "dccsim.f2", "dccsim.lattice", "dccsim.noise", "dccsim.protocol",
                              "dccsim.settings"}
    assert "numpy" in new
    assert not {"json", "hashlib"} & set(new)


def test_cli_import_loads_neither_hashlib_nor_csv():
    # Only `build` hashes and only `simulate` writes CSV; each imports its
    # module where it is used.
    assert run_fresh(CLI_IMPORT) == []
