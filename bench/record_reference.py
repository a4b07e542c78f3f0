"""Record the reference outputs the benchmark's check op is compared with.

    python3 bench/record_reference.py

Runs op 0 of CHECK_SEED for every workload and writes bench/reference.npz.
Rerun it only when a change is meant to alter the library's outputs.
"""

import numpy as np

from worker import REFERENCE, import_library
from workloads import CHECK_SEED, WORKLOADS


def main():
    pr = import_library()
    recorded = {}
    for name, cls in WORKLOADS.items():
        workload = cls(pr)
        output = workload.run(pr, workload.make_input(pr, CHECK_SEED, 0))
        recorded[name] = workload.reference_values(output)
    np.savez_compressed(REFERENCE, **recorded)
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
