"""A 15-vertex design whose spectrum has a hole.

For ordinary graphs the feasible sizes of complete colorings form an
unbroken range between chi and psi.  For 3-uniform hypergraphs that
fails: this 3-regular design on 15 vertices admits complete colorings
with 3 and with 5 colors, but provably none with 4.
"""

from hypercolor import brute_force_spectrum, exists_complete, regular15, spectrum

H = regular15()
print("design:", H)
print("degrees:", sorted(int(d) for d in H.degrees()))

report = spectrum(H)
print("feasible sizes:", report.feasible)
print("interpolation holds:", report.interpolation_holds)

# The t=4 refusal is an exhaustive decision, not a sampling claim.
res = exists_complete(H, 4)
print("t=4 search:", res.status, f"({res.nodes} nodes explored)")

# Cross-check the low end by brute force: of the 3**15 assignments, it
# walks only the proper colorings, one per renaming of the colors.
print("brute force up to t=3:", sorted(brute_force_spectrum(H, 3)))

# The two witnesses, as vertex -> color maps.
for t in (3, 5):
    print(f"t={t} witness:", report.witnesses[t].colors)
