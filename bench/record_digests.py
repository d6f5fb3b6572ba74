"""Record the exact-output digest of every workload into bench/digests.json.

    python3 bench/record_digests.py             # seeds 0..63, all workloads

A digest hashes, in canonical p/q form, the exact answers of a workload's
leading units, at each input size: ordered region vertices, d_sym values, split
tuples, MAC oracles and parsed CLI answers.  ``bench/run.py`` fails a run
whose digest differs from the one recorded for its seed, so a change to the
package must reproduce these byte for byte; only a change to the
benchmark's inputs re-records them.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def digest(name: str, seed: int, size: str) -> str:
    from pace import Pace
    from workloads import Recorder

    _, wl, units, _ = run.setup(name, seed, size)
    tally, _ = run.run_units(wl, units, Recorder(Pace(wl.reference, wl.reference_ns)),
                             run.digest_units(wl, size), 0)
    if tally.exact_faults:
        raise SystemExit(f"{name} seed {seed} has faults: {tally.faults}")
    return tally.hash.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=64, help="record seeds 0..N-1")
    args = p.parse_args(argv)
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    table = {size: {name: {str(s): digest(name, s, size) for s in range(args.seeds)}
                    for name in WORKLOADS}
             for size in ("full", "tiny")}
    with open(run.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
