"""The grid family and its two extreme colorings.

Vertices form a k x r grid (k parts, r positions).  Each edge picks one
vertex per part, all on distinct positions, subject to an adjacency
restriction.  Coloring by part is a complete k-coloring; coloring by
position is a complete r-coloring.  The family was meant to have no
complete coloring in a wide band between k and r, but at k = 3 a mixed
coloring (positions 0..t-4 get colors of their own, every other vertex
is colored by its part) is complete inside that band, so
``GridParams.gap_range`` is empty there; for k >= 4 the band is
unconfirmed.

This demo uses a small instance and verifies the machinery; the
proof-scale instances (r up to 34, tens of millions of edges) run in the
acceptance suite.
"""

from hypercolor import (
    GridParams,
    grid_part_coloring,
    grid_position_coloring,
    grid_transversal,
    is_complete,
    spectrum,
)
from hypercolor.constructions import verify_grid_invariants

k, r = 3, 8
H = grid_transversal(k, r)
print(f"grid k={k}, r={r}:", H)

flags = verify_grid_invariants(H, k, r)
print("structure checks:", flags)

part = grid_part_coloring(k, r)
pos = grid_position_coloring(k, r)
print("part coloring complete at t=k:", is_complete(H, part))
print("position coloring complete at t=r:", is_complete(H, pos))

# At k = 3 the formula's band ceil(r/2)+4 .. r-1 is t = 9 for r = 10, yet
# the mixed coloring (positions 0..5 get colors of their own, every other
# vertex color 6 + part) is complete there.
wide = grid_transversal(3, 10)
t = 9
mixed = [q if q <= t - 4 else t - 3 + part for part in range(3) for q in range(10)]
print(f"grid k=3, r=10: mixed coloring complete at t={t}:",
      is_complete(wide, mixed))
print("gap_range at k=3, r=10:", list(GridParams(3, 10).gap_range()))

# A truly small instance stays solvable end to end, so we can look at
# the whole spectrum directly; at this scale there is no gap yet.
tiny = grid_transversal(3, 5)
report = spectrum(tiny)
print("\nfull spectrum of the 3x5 grid:", report.feasible)
