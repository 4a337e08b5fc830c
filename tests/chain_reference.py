"""A reference for the bits one backtrack chain delivers.

The package never states a chain's reward as a formula: the receiver adds
the new bits of the chain's slots.  The tests hold those sums against this.
"""

from brqsim.channel import capacity


def reward_of_chain(rate: float, slot_uses: int, outage_snrs) -> float:
    """New information bits credited at a renewal: N * (R + sum C(snr)).

    `outage_snrs` are the effective SNRs of the chain's L-1 failed slots.
    """
    total = 0.0
    for s in outage_snrs:
        c = capacity(s)
        if c >= rate:
            raise ValueError(f"chain slot with C({s}) = {c} >= rate {rate}")
        total += c
    return slot_uses * (rate + total)
