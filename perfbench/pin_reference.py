"""Regenerate ``reference_simulate.json``, the per-cell reference of the
``simulate`` workload, and cross-check it against Table 3.

    PYTHONPATH=src python3 perfbench/pin_reference.py

Every cell's cycles, dynamic blocks, static blocks, static instructions
and m/t/u/p counts are pinned.  Before writing, the BB block counts and
the block-count improvements and m/t/u/p of the orderings Table 3 shares
with this workload (IUPO, (IUP)O, (IUPO)) must agree with
``results_full.txt``.
"""

from __future__ import annotations

import json
import sys

import cells


def table3_mismatches(pass_cells: list) -> list:
    """Cells whose block numbers disagree with Table 3 of
    ``results_full.txt``."""
    reference = cells.report_fragments(cells.PAPER_REFERENCE.read_text())
    bad = []
    for cell in pass_cells:
        _, workload, config = cell.key
        expected = reference.get(("Table 3", workload, config))
        if expected is None:
            continue  # BF and DF are not in Table 3
        if config == "BB":
            produced = [str(cell.blocks)]
        else:
            base = cell.baseline.blocks
            improvement = 100.0 * (base - cell.blocks) / base
            produced = [f"{improvement:.1f}% {cell.numbers()['mtup']}"]
            expected = [" ".join(expected[0].split())]
        if produced != expected:
            bad.append(f"{workload}/{config}: {produced} != {expected}")
    return bad


def main() -> int:
    record = cells.SimulateWorkload(seed=0).run_pass()
    if record.error:
        print(record.error, file=sys.stderr)
        return 1
    bad = table3_mismatches(record.cells)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    pinned = {
        f"{cell.key[1]}/{cell.key[2]}": cell.numbers()
        for cell in record.cells
    }
    cells.SIMULATE_REFERENCE.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"pinned {len(pinned)} cells -> {cells.SIMULATE_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
