"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe_setup.py SRC_DIR CONFIG

Times `import axisym`, then loading CONFIG, building its instance and the
first energy and gradient evaluation (which fills the t-operator cache),
and prints {"import_s", "setup_s", "setup_wall_s"} as one JSON line.
numpy is imported before the clock starts, because the speed sampler
(perfbench/speed.py) that scales `import_s` and `setup_s` needs it.
"""

import json
import sys
import time
from pathlib import Path


def main(src, config):
    sys.path[:0] = [str(Path(__file__).resolve().parent.parent), src]
    from perfbench.speed import SpeedSampler

    with SpeedSampler() as sampler:
        start = time.perf_counter()
        import axisym  # noqa: F401
        from axisym import cli, energy, fields
        imported = time.perf_counter()
        cfg = cli.load_config(config)
        mesh, target, params, sc = cli.build_run(cfg)
        field = fields.random_field(mesh, target, seed=sc.seed)
        energy.total_energy(field, params)
        energy.euclidean_gradient(field, params)
        done = time.perf_counter()
    speed = sampler.speed()
    print(json.dumps({"import_s": (imported - start) * speed,
                      "setup_s": (done - start) * speed,
                      "setup_wall_s": done - start}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
