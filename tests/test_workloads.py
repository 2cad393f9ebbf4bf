"""The benchmark's workload configs stay the same.

``perfbench/workloads.py`` redraws the ``rect_certify`` perturbation until
``check_hypothesis_v`` accepts it, so a change in how the package computes
the admissibility of a perturbation could change the workload itself.  The
module is read from its file, not edited or imported as a package."""

import hashlib
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# SHA-256 of the sorted-key JSON of make_config("rect_certify", seed, tiny)
# for tiny in (False, True) and seeds 1..30
RECT_CERTIFY = "2f539fed536966c4c519236e5ed71bc0de1de0ae3fb77fa9e4df5e77ed25df4e"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rect_certify_configs_are_pinned():
    workloads = load_workloads()
    configs = [workloads.make_config("rect_certify", seed, tiny)
               for tiny in (False, True) for seed in range(1, 31)]
    digest = hashlib.sha256(json.dumps(configs, sort_keys=True).encode())
    assert digest.hexdigest() == RECT_CERTIFY
