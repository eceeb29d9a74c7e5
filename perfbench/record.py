"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record.py

Writes perfbench/recorded.json: the catalog tables of order <= 4 as plain
tables, the number of continuous (catalog table, topology) models, the
suite's machine_report TSV, and the exit code and stdout digest of every
`ok` cli op.  Run it only on the commit whose behaviour is the reference;
re-recording on a later commit would hide any change in its outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.chdir(run.ROOT)
    from cliffordlab import catalog, suite, topology

    tables = [(name, [list(r) for r in S.table])
              for name, S in catalog.semigroup_catalog().items() if S.n <= 4]
    sgs = {name: S for name, S in catalog.semigroup_catalog().items() if S.n <= 4}
    continuous = sum(
        topology.continuity_check(topology.TopologicalSemigroupModel(S, T))[0]
        for n in (1, 2, 3, 4) for T in topology.all_topologies(n)
        for S in sgs.values() if S.n == n)
    recorded = {"catalog_tables": tables, "catalog_continuous": continuous,
                "suite_machine_report": suite.machine_report(suite.run_all())}
    ctx = workloads.Context(run.ROOT, recorded)
    state = workloads.Cli.inputs(0, ctx)
    recorded["cli"] = {}
    for op_id, argv, expect in sorted(state):
        code, out, err = workloads._cli_process(ctx, argv + ["--format", "tsv"])
        recorded["cli"][op_id] = {"exit": code,
                                  "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        print(op_id, expect, code, len(out), err.strip().splitlines()[-1:] or "")
    with open(os.path.join(run.HERE, "recorded.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
