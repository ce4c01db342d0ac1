"""
Decoding without knowing the network
====================================

Prepend an identity header to the payload and transmit [I | X].  Whatever
full-rank mixing the network applies, the header block reveals it, up to
the adversary's injections; the decoder searches the (few) possible
injection column spaces, peels each off, and keeps the single message
that survives.
"""

import numpy as np

from secnc import (
    SchemeParams,
    build_instance,
    noncoherent_decode,
    sample_realization,
    transmit_lifted,
)
from secnc.audit import noncoherent_consistency_oracle

params = SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1)
inst = build_instance(params)
rng = np.random.default_rng(14)

S = [12]
X = inst.encode(S, rng=rng)
real = sample_realization(params, N=5, rng=rng, lifted=True)
res = transmit_lifted(inst.F, X, real)
print("received 5x8 matrix, transfer matrix unknown to the decoder:")
print(res.Y)

out = noncoherent_decode(inst, res.Y)
print("decoded:", out.message, " (sent", tuple(S), ")")

# brute force over every possible injected error agrees
print("every consistent explanation:", noncoherent_consistency_oracle(inst, res.Y))
