"""The benchmark's workload configs stay the same, and so does its walk.

``perfbench/workloads.py`` redraws the ``rect_certify`` perturbation until
``check_hypothesis_v`` accepts it, so a change in how the package computes
the admissibility of a perturbation could change the workload itself.  The
module is read from its file, not edited or imported as a package."""

import hashlib
import importlib.util
import json
import os

import numpy as np

from jumpspectra import cli, stochastic as st

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


# SHA-256 of the counts and the restart and rejection counters of the
# seed-1 disk_walk walk at full size: 1000 paths x 20,000 steps, 2e7 steps
# in all, where a count flipped by a step's last bits would show
DISK_WALK_SEED1 = \
    "94d6afd093a3ba6fe89ccc6b67dd2657f96a4a6ead53d8cc6eb21b8aa9b6eed7"


def test_disk_walk_at_full_size_is_pinned():
    exp = cli.build_experiment(load_workloads().make_config("disk_walk", 1))
    assert exp.walk.n_paths * exp.walk.n_steps == 20_000_000
    run = st.simulate_occupation(exp.walk, exp.measure, exp.basis)
    h = hashlib.sha256(np.ascontiguousarray(run.counts, np.int64).tobytes())
    h.update(np.array([run.n_restarts, run.rejection_attempts,
                       run.rejection_accepts], np.int64).tobytes())
    assert h.hexdigest() == DISK_WALK_SEED1
