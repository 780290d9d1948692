"""Time one set-up in a fresh interpreter and print it as a JSON line.

Set-up is: import pnewton, generate (builtin) or parse (libsvm) the data,
then ``glm_build`` and ``glm_constants``. Run by ``worker.py`` between ops,
with the pinned BLAS environment and the run's directory as working
directory; usage:

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import json
import sys
import time


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    import pnewton
    from pnewton.harness import load_dataset, make_logistic_dataset

    from workloads import ALPHA, WORKLOADS

    w = WORKLOADS[workload]
    if w.replay:
        A, labels = load_dataset(f"{workdir}/{w.data_file}", "libsvm", link=w.link)
    else:
        A, labels = make_logistic_dataset(w.n, w.m, seed=seed)
    glm = pnewton.glm_build(A, w.link, ALPHA, labels)
    constants = pnewton.glm_constants(glm)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "L": constants.L, "shape": list(A.shape)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
