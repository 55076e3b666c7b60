"""Import cost: the package loads no scipy on any path.

scipy takes about a second to import, more than a short experiment takes
to run.  numpy is the only runtime dependency: the normal quantile of
directions (`geometry._ndtri`) and the fit of reducing operators
(`muckenhoupt._fit_reducing`) are in-house.  The child process below runs
both, in a 2-D covering and a complex reducing-operator fit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import anisoweights

CHILD = """
import importlib, json, pkgutil, sys

import numpy as np

import anisoweights

for info in pkgutil.iter_modules(anisoweights.__path__):
    importlib.import_module("anisoweights." + info.name)

from anisoweights import dilation, geometry, muckenhoupt, weights

G1 = dilation.DilationGroup([[1.0]])
geometry.build_structured_covering(G1, 0.5, 4.0, seed=0, candidates_per_shell=64)

S = weights.ScalarWeightSpec
W = weights.MatrixWeightSpec.diag_dominant(
    [S.poly_abs_power({(1, 0): 1.0}, 0.5), S.radial_power(0.5), S.constant(2.0)],
    {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 0): 1.0, (0, 0): 0.5}},
    0.5,
)
G2 = dilation.DilationGroup(np.diag([1.0, 2.0]))
quad = muckenhoupt.BallQuadrature("mapped_grid", 256)
muckenhoupt.ap_ball_quantity_ladder(W, geometry.AnisoBall([0.5, -0.5], 1.0), 2.0, quad, G2)

geometry.build_structured_covering(dilation.DilationGroup(np.diag([0.5, 1.0])), 0.5, 4.0,
                                   seed=0, candidates_per_shell=128)
th = 0.4
U = np.array([[np.cos(th), 1j * np.sin(th)], [1j * np.sin(th), np.cos(th)]])
Wc = weights.MatrixWeightSpec.conjugated(U, [S.poly_abs_power({(1, 0): 1.0}, 0.5),
                                             S.radial_power(-0.3)])
pair = muckenhoupt.reducing_operators(Wc, geometry.AnisoBall([0.2, -0.1], 0.7), 1.5, quad, G2)
assert np.iscomplexobj(pair.A_B) and pair.A_B.imag.any()

print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_and_scipy_free_paths_load_no_scipy():
    source = str(Path(anisoweights.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []
