"""Compute one H^1 cell end to end and print the resonance analysis, then
assemble the full n = 0 table.

The n = 1 and n = 2 tables run the same way (a few seconds); see the CLI:
    superdensity tables --n 0..2 --format md

Run:  python demos/04_cohomology_tables.py
"""
import time
from fractions import Fraction

from superdensity.cohomology import h1_cell
from superdensity.reports import h1_report, reports_to_markdown

print("== one cell in detail: n = 0, mu - lambda = 5")
cell = h1_cell(0, 10)
print(f"  ansatz columns:        {len(cell.ansatz.terms)}")
print(f"  dim Z (cocycles):      {cell.dim_z}")
print(f"  dim B (coboundaries):  {cell.b_rank}")
print(f"  generic dim H^1:       {cell.dim_h1}")
print(f"  candidate locus:       {cell.candidate_locus}")
for root, dim in cell.resonances:
    txt = root if isinstance(root, Fraction) else root.radical_text()
    print(f"  resonance: lambda = {txt}  ->  dim H^1 = {dim}")
for root in cell.rejected:
    txt = root if isinstance(root, Fraction) else root.radical_text()
    print(f"  pruned candidate: lambda = {txt}")

print("\n== the quadratic resonance at shift 6")
cell = h1_cell(0, 12)
for root, dim in cell.resonances:
    print(f"  lambda = {root.radical_text()}  (minpoly t^2 + {root.c1} t + {root.c0}) -> dim {dim}")

print("\n== the full n = 0 table")
t0 = time.time()
reps = [h1_report(0, ts, run_gates=False) for ts in range(0, 15, 2)]
print(reports_to_markdown(reps))
print(f"(computed in {time.time()-t0:.1f}s)")
