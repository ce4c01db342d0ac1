"""
The combined scheme end to end
==============================

One packet of secret message, one packet of fresh randomness, four
packets on the wire.  An adversary injects a corrupted packet and an
eavesdropper reads one link; the destination still decodes exactly and
the eavesdropper learns exactly nothing.
"""

import numpy as np

from secnc import SchemeParams, build_instance, sample_realization, transmit

params = SchemeParams(q=2, m=4, n=4, t=1, mu=1, k=1)
inst = build_instance(params)
print(inst)
print("outer code distance:", params.min_distance, " rate:", params.rate_bits,
      "bits per transmission")

rng = np.random.default_rng(2026)
S = [9]
X = inst.encode(S, rng=rng)
print("secret:", S, "-> payload:", X)

# same payload, resampled randomness: the wire never looks the same twice
print("payload under fresh V:", inst.encode(S, rng=rng))

real = sample_realization(params, N=5, rng=rng)
res = transmit(inst.F, X, real)
print("channel: A is 5x4, one injected packet, eavesdropper taps", real.B.tolist())

out = inst.coherent_decode(res.Y, real.A)
print("decoded:", out.message, " injected rank:", out.error_rank)
assert out.message == tuple(S)

# the eavesdropper's view W = B expand(X); one row of base-field symbols
print("eavesdropper sees:", res.W.tolist())
