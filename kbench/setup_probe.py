"""Set-up time of one workload, measured in this fresh process.

    python3 kbench/setup_probe.py --workload holonomy_shipped

Times importing ``kcontact`` and building the workload's configs and
charts, with the machine-speed correction of ``speed.py``, and prints
``{"raw_s": ..., "factor": ..., "corrected_s": ...}``.  numpy is imported
and the reference kernel warmed up before the clock starts, because the
correction needs them; the timed import therefore covers ``kcontact`` and
whatever it imports beyond numpy.  ``run.py`` starts this several times per
run and reports the median corrected time.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    args = p.parse_args()

    from refkernel import reference_kernel
    from speed import SpeedMeter

    for _ in range(3):  # the first calls load linalg and warm caches
        reference_kernel()
    sys.path.insert(0, str(HERE.parent / "src"))

    def set_up():
        import kcontact.cli  # noqa: F401
        import workloads

        workloads.build(workloads.load(args.workload, HERE.parent))

    _, timing = SpeedMeter().time(set_up)
    print(json.dumps({"raw_s": timing.raw_s, "factor": timing.factor,
                      "corrected_s": timing.corrected_s}))


if __name__ == "__main__":
    main()
