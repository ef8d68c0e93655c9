"""Regenerate the golden output digests under perfbench/golden/.

    python3 perfbench/make_golden.py

Run it from the root of a checkout, only at a commit whose outputs are
known to be right (the digests were first taken at the commit that added
the benchmark), and only when the benchmark's op set changes: every later
run counts an output that differs from these digests as a failed op.
"""

import json
import os
import sys

import child  # imports qkron from ./src
import common


def main():
    from qkron import dcb

    layers = {common.exp_key(a): common.digest(str(dcb.layer_table(k).entries[a]))
              for k in range(common.K_TOP + 1) for a in common.layer_exponents(k)}
    queries = []
    for cat, argv in common.flat_pool():
        code, stdout = child.cli_request(argv)
        if code != (3 if cat == "over-cap" else 0):
            sys.exit(f"{' '.join(argv)} exited {code}; the pool must hold only "
                     "requests with a defined, expected outcome")
        queries.append(common.digest(common.request_output(code, stdout)))
    verify = {}
    for name in common.SUITES:
        code, stdout = child.cli_request(["verify", name])
        if code != 0 or json.loads(stdout)["ok"] is not True:
            sys.exit(f"verify {name} did not pass")
        verify[name] = common.digest(common.request_output(code, stdout))
    os.makedirs(common.GOLDEN_DIR, exist_ok=True)
    for name, data in (("layers", layers), ("queries", queries), ("verify", verify)):
        with open(common.golden_path(name), "w") as fh:
            json.dump(data, fh, indent=0 if name == "queries" else 1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
