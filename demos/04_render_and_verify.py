"""Draw the construction and check that nothing overlaps.

Renders the constant-diameter body, a single cut body with its six
stripe lines, and a colored lattice patch to SVG files, then runs the
geometric separation check.  The check is exact, not sampled: each body
copy is trimmed by its stripe half-planes to arc pieces and chords, and
the closed-form minimum distance between neighboring trimmed copies must
be at least 2, with the two witness points that attain it.
"""

from croft_forge import (
    build_body,
    reference_step_function,
    render_body_svg,
    render_lattice_svg,
    render_tortoise_svg,
    tortoise_area,
    verify_avoidance,
    write_svg,
)

q = reference_step_function()
eps = 0.08

record = tortoise_area(eps, "series2", q=q)
stripes = record.stripes()

write_svg(render_body_svg(build_body(q, eps)), "body.svg")
write_svg(render_tortoise_svg(q, eps, stripes), "tortoise.svg")
write_svg(render_lattice_svg(q, eps, stripes), "lattice.svg")
print("wrote body.svg, tortoise.svg, lattice.svg")

report = verify_avoidance(q, eps, stripes)
status = "OK" if report.ok else "VIOLATION"
print(f"separation check at eps={eps}: {status}")
print(f"  edges checked               {report.n_edges}")
print(f"  worst half-plane violation  {report.max_halfplane_violation:.2e}")
print(f"  min cross-body distance     {report.min_cross_distance:.12f}")
p, r = report.cross_witness
print(f"    attained between          ({p[0]:.6f}, {p[1]:.6f}) and ({r[0]:.6f}, {r[1]:.6f})")
print(f"  max same-body diameter      {report.max_same_body_diameter:.12f}")
