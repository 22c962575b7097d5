"""One set-up repeat of the qsheaf benchmark, in a fresh interpreter.

    python3 perfbench/setup_job.py --workload sheaf-qc --seed 3 --rounds 2 --out DIR

Runs perfbench/workloads.py's main (import qsheaf.cli, generate and write
the inputs) inside a SpeedLog, and prints as its last line a JSON list of
the calibration slices that ran meanwhile, in seconds.
"""

import json
import sys

from speed import SpeedLog



def main(argv):
    with SpeedLog() as log:
        import workloads

        workloads.main(argv)
        log.calibrate()  # at least one slice, however short the run
    print(json.dumps([seconds for _, seconds in log.slices]))


if __name__ == "__main__":
    main(sys.argv[1:])
