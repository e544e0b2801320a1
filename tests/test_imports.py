import json
import os
import subprocess
import sys
from pathlib import Path

import lpkmeans
from lpkmeans.generators import GenSpec, generate

# Runs in a fresh interpreter: the certify pipeline, the modules loaded after
# it, then one cutting-plane solve whose seed the pairwise check does not
# certify.
SCRIPT = """
import json, sys
import lpkmeans, lpkmeans.certify, lpkmeans.cutplane, lpkmeans.cli
from lpkmeans.certify import certify, gamma_values, proximity_check
from lpkmeans.core import squared_distances
from lpkmeans.generators import GenSpec, generate

points, planted = generate(GenSpec("sbm", n=60, m=2, delta=2.3, seed=1))
d = squared_distances(points)
proximity_check(d, planted)
state = certify(gamma_values(d, planted), planted)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
points, _ = generate(GenSpec("ssm", n=20, m=2, delta=2.2, seed=1))
partition, trace, tight = lpkmeans.solve_kmeans_lp(points, lpkmeans.SolveConfig(k=2))
print(json.dumps({
    "success": state.success, "scipy_after_certify": loaded,
    "sparse_after_solve": "scipy.sparse" in sys.modules, "assign": partition.assign.tolist(),
    "f_lb": trace.f_lb.hex(), "f_ub": trace.f_ub.hex(), "tight": tight,
}))
"""


def test_certify_pipeline_loads_no_scipy_and_first_solve_does():
    src = str(Path(lpkmeans.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(run.stdout)
    assert out["success"] and out["scipy_after_certify"] == []
    assert out["sparse_after_solve"]
    points, _ = generate(GenSpec("ssm", n=20, m=2, delta=2.2, seed=1))
    partition, trace, tight = lpkmeans.solve_kmeans_lp(points, lpkmeans.SolveConfig(k=2))
    assert out["assign"] == partition.assign.tolist()
    assert (out["f_lb"], out["f_ub"], out["tight"]) == (trace.f_lb.hex(), trace.f_ub.hex(), tight)


def test_cli_import_loads_no_scipy_and_no_libcrypto():
    # hashlib loads OpenSSL's libcrypto; certify imports it where it digests d
    src = str(Path(lpkmeans.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import json, sys, lpkmeans.cli; print(json.dumps(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib'))))")
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout) == []


def test_certified_solve_loads_no_scipy():
    # the pairwise check certifies the seed before any LP is built
    src = str(Path(lpkmeans.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """
import json, sys
import lpkmeans
from lpkmeans.generators import GenSpec, generate

points, _ = generate(GenSpec("ssm", n=20, m=2, delta=3.0, seed=1))
_, trace, _ = lpkmeans.solve_kmeans_lp(points, lpkmeans.SolveConfig(k=2))
print(json.dumps({"certified": trace.certified,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout) == {"certified": True, "scipy": []}


def test_scipy_loaded_before_the_first_lp_build():
    # the first import of scipy.sparse counts in the solve's time_init, not
    # in round 1's time_build
    src = str(Path(lpkmeans.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """
import json, sys
import lpkmeans, lpkmeans.cutplane as cutplane
from lpkmeans.generators import GenSpec, generate

seen = []
build = cutplane.build

def recording_build(*args, **kwargs):
    seen.append("scipy.sparse" in sys.modules)
    return build(*args, **kwargs)

cutplane.build = recording_build
points, _ = generate(GenSpec("ssm", n=20, m=2, delta=2.2, seed=1))
before = "scipy.sparse" in sys.modules
lpkmeans.solve_kmeans_lp(points, lpkmeans.SolveConfig(k=2))
print(json.dumps({"before": before, "seen": seen}))
"""
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(run.stdout)
    assert not out["before"] and out["seen"] and all(out["seen"])
