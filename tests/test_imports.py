"""The denoiser, transform, simulate and metrics paths load numpy only.

Only the Poisson model checks (the GOF test and the spd pmfs) need
scipy, and they load scipy.special alone: scipy.stats takes about four
times as long to import and three times the memory. Each check runs in a
fresh interpreter, because pytest has scipy loaded already.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

import poissonridge as pr

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_ONLY = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import poissonridge as pr
from poissonridge.cli import main
loaded["import"] = scipy_modules()

ints = pr.sample_poisson(np.full((16, 16), 3.0), seed=1)
counts = ints.astype(float)
pr.denoise(counts, pr.DenoiseConfig(transform=pr.TransformConfig(angles=12)))
sino = pr.drt_gdb(counts).data
pr.denoise(sino, pr.DenoiseConfig(entry="sinogram"))
loaded["denoise"] = scipy_modules()

out = sys.argv[1]
with open(out + "/run.cfg", "w") as fh:
    fh.write("phantom.kind = inhomogeneous\\nphantom.size = 16\\n"
             "transform.angles = 12\\nsamples = 100\\n"
             f"output_dir = {out}\\n")
pr.write_pgm(out + "/counts.pgm", ints)
codes = [main(["simulate", "-c", out + "/run.cfg"]),
         main(["denoise", "-c", out + "/run.cfg"]),
         main(["transform", "-c", out + "/run.cfg",
               "--input", out + "/counts.pgm"]),
         main(["metrics", out + "/denoised.csv", out + "/intensity.csv"])]
loaded["cli"] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

MODEL_CHECKS = """
import json, sys
import poissonridge as pr
from poissonridge.cli import main

def scipy_loaded():
    return {"stats": "scipy.stats" in sys.modules,
            "special": "scipy.special" in sys.modules}

loaded = {}
report = pr.run_distribution_experiment(
    pr.PhantomSpec("inhomogeneous", 8, 0.5, 10), pr.TransformConfig("gdb"),
    100, 3, gof=True)[0]
params = pr.moment_match([1.0, -1.0], [2.0, 3.0])
pmf = pr.spd_pmf(params, -1.0).hex()
tv = pr.wavelet_coeff_dist([1.0, -1.0], [2.0, 3.0])[1]
loaded["api"] = scipy_loaded()

out = sys.argv[1]
with open(out + "/run.cfg", "w") as fh:
    fh.write("phantom.kind = inhomogeneous\\nphantom.size = 8\\n"
             "transform.variant = gdb\\nsamples = 100\\n"
             f"output_dir = {out}\\n")
code = main(["verify-dist", "-c", out + "/run.cfg", "--gof"])
loaded["cli"] = scipy_loaded()
print(json.dumps({
    "gof": [report.gof_pass_fraction.hex(), report.gof_tested],
    "pmf": pmf,
    "tv": tv,
    "code": code,
    "loaded": loaded,
}))
"""


def run_fresh(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_denoise_and_cli_load_no_scipy(tmp_path):
    result = run_fresh(NUMPY_ONLY, tmp_path)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == {"import": [], "denoise": [], "cli": []}


def test_model_checks_load_scipy_where_they_run(tmp_path):
    result = run_fresh(MODEL_CHECKS, tmp_path)
    only_special = {"stats": False, "special": True}
    assert result["loaded"] == {"api": only_special, "cli": only_special}
    assert result["code"] == 0
    report = pr.run_distribution_experiment(
        pr.PhantomSpec("inhomogeneous", 8, 0.5, 10), pr.TransformConfig("gdb"),
        100, 3, gof=True)[0]
    assert result["gof"] == [report.gof_pass_fraction.hex(),
                             report.gof_tested]
    assert report.gof_tested > 0
    params = pr.moment_match([1.0, -1.0], [2.0, 3.0])
    assert result["pmf"] == pr.spd_pmf(params, -1.0).hex()
    assert result["tv"] == pr.wavelet_coeff_dist([1.0, -1.0], [2.0, 3.0])[1]


LAYERS = ["config", "fileio", "harness", "metrics", "phantoms", "radon",
          "ridgelet", "seeding", "shrinkage", "spd", "svgplot", "wavelet"]


def test_package_exports_exactly_the_layer_exports():
    # cli is the console script's module and DEFAULTS_TABLE is a
    # documentation string; neither is a package export
    layer_names = set()
    for name in LAYERS:
        module = importlib.import_module(f"poissonridge.{name}")
        layer_names |= set(module.__all__)
    layer_names.discard("DEFAULTS_TABLE")
    assert sorted(pr.__all__) == sorted(layer_names)
    assert len(pr.__all__) == len(set(pr.__all__))
    assert all(hasattr(pr, name) for name in pr.__all__)


def test_every_record_is_frozen():
    # a record checks its fields when it is built; an assignment would
    # change a field past that check, so dataclasses.replace, which
    # builds a new record, is the only way to change one
    records = {}
    for info in pkgutil.iter_modules(pr.__path__):
        module = importlib.import_module(f"poissonridge.{info.name}")
        records.update((obj.__name__, obj) for obj in vars(module).values()
                       if isinstance(obj, type) and is_dataclass(obj)
                       and obj.__module__ == module.__name__)
    assert {"Sinogram", "TransformConfig", "ThresholdPolicy",
            "DenoiseConfig", "RunConfig", "BandNoiseModel", "WaveletPyramid",
            "DenoiseResult", "DistReport", "WaveletSpec", "PhantomSpec",
            "Disk", "Bar", "SpdParams"} <= set(records)
    assert [name for name, record in sorted(records.items())
            if not record.__dataclass_params__.frozen] == []
