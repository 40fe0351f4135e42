"""Moment-map identities in exact integer arithmetic.

For A in Hom(V_0, V_1) the compositions A^t A and A A^t land in so(V_0)
and sp(V_1).  Their characteristic polynomials agree (odd N) or differ by
a factor z^2 (even N), the Pfaffian of A^t A vanishes identically in the
even case, and in the odd case the entries of A^t A recover the classical
quadratic invariants of the symplectic group.  All of it is checked on
seeded random integer matrices; nothing is approximate.
"""

import random

from ospkostka import FormsSpec, adjoint, char_poly, moment_check, pfaffian, q0, q1
from ospkostka.moment import mat_scale, random_hom

spec = FormsSpec(4)
rng = random.Random(0)
A = random_hom(spec, rng)

print(f"N=4: dim V_0 = {spec.dim0}, dim V_1 = {spec.dim1}")
print("char poly of A^t A:", [str(c) for c in char_poly(q0(spec, A))])
print("char poly of A A^t:", [str(c) for c in char_poly(q1(spec, A))])
print("Pfaffian of A^t A:", pfaffian(q0(spec, A)))

# the double adjoint picks up a sign from the symplectic form
back = adjoint(spec, adjoint(spec, A), source=1)
print("adjoint(adjoint(A)) == -A:", back == mat_scale(A, -1))

print()
for N in (3, 4, 5, 6):
    report = moment_check(N, trials=200, seed=42)
    parts = [f"char identity {report['char_identity']}/200"]
    if N % 2 == 0:
        parts.append(f"Pfaffian vanishing {report['pfaffian_vanishing']}/200")
    else:
        parts.append(f"invariant generators {report['fft_generators']}/200")
    parts.append(f"equivariance {'ok' if report['equivariance'] else 'FAIL'}")
    print(f"N={N}: " + ", ".join(parts))
