"""Projective planes from finite fields, and the full power-set check.

Builds the planes of orders 2, 3, 4 (the last from bundled GF(4) tables),
prints the closed-form level-3 and level-4 classes of the order-3 and
order-4 planes (Steiner 2-designs, so three classes at level 4), verifies
that the order-3 plane's power-set classes form a friendly family of
designs, and times the 2^21-subset sweep for the order-4 plane (a median
0.26 s at a median peak RSS of 52 MB on 2 cores: the `wall_s` and
`peak_rss_mb` of `python3 perfbench/run.py --workload sweep-pg24`).
"""

import time
from importlib import resources

from blockfriends import (
    analyze,
    classify_all,
    closed_form_classes,
    is_self_friend,
    load_field_tables,
    prime_field,
    projective_plane,
)

planes = {}
for q in (2, 3):
    planes[q] = projective_plane(prime_field(q))
gf4 = load_field_tables(
    resources.files("blockfriends.data").joinpath("gf4.tables").read_text())
planes[4] = projective_plane(gf4)

for q, d in planes.items():
    verdict = is_self_friend(d)
    print(f"pg(2,{q}): {d.params}, self-friend via {verdict.theorem_case}, "
          f"profile {verdict.profile_1_2}")

for q in (3, 4):
    print()
    for n in (3, 4):
        print(f"pg(2,{q}) closed-form level {n}:")
        for cls, params in closed_form_classes(planes[q], n):
            print(f"  {cls.signature}x{cls.size}: {params}")

print("\npower-set classification of pg(2,3) over 2^13 subsets:")
t0 = time.time()
report = analyze(classify_all(planes[3]))
print(f"  {len(report.class_keys)} classes in {time.time() - t0:.1f}s")
print("  every class a design:", all(report.is_design))
print("  classes pairwise friends:", report.family_friendly)
print("  headline verdict:", report.conjecture)

print("\nfull sweep for pg(2,4) over 2^21 subsets (counts only):")
t0 = time.time()
sub = classify_all(planes[4], keep_members=False)
dt = time.time() - t0
per_level = [len(level) for level in sub.levels]
print(f"  done in {dt:.1f}s; classes per level: {per_level}")
print(f"  total subsets: {sum(c.size for lv in sub.levels for c in lv)}")
