"""A slot sink that keeps a session's slot log as whole columns."""

import numpy as np

from brqsim.protocol import SLOT_FIELDS


class SlotColumns:
    """Collects a session's `SlotRows` chunk by chunk; `columns` joins them
    into one array per `SLOT_FIELDS` name, NaN `eff_snr` for an ack."""

    def __init__(self):
        self.chunks = []

    def __call__(self, rows):
        self.chunks.append(rows)

    @property
    def columns(self) -> dict[str, np.ndarray]:
        chunks = self.chunks
        assert [rows.start for rows in chunks] == np.cumsum(
            [0] + [len(rows.decoded) for rows in chunks[:-1]]).tolist()

        def joined(name):
            return np.concatenate([getattr(rows, name) for rows in chunks])

        decoded = joined("decoded")
        slot = np.arange(len(decoded))
        chain_length = np.zeros(len(decoded), dtype=np.int64)
        reward_bits = np.zeros(len(decoded))
        chain_length[decoded] = joined("chain_length")
        reward_bits[decoded] = joined("reward_bits")
        columns = dict(
            slot=slot, instance=slot % chunks[0].processes, snr=joined("snr"),
            eff_snr=np.where(joined("fed"), joined("eff_snr"), np.nan),
            parity_bits=joined("parity_bits"), new_bits=joined("new_bits"), decoded=decoded,
            renewal=decoded, chain_length=chain_length, reward_bits=reward_bits,
        )
        assert tuple(columns) == SLOT_FIELDS
        return columns


def logged(run, *args, **kwargs):
    """`run(*args, **kwargs)` with a collecting `slot_sink`: its log and the
    slot columns."""
    sink = SlotColumns()
    log = run(*args, slot_sink=sink, **kwargs)
    return log, sink.columns


def fan_out(*sinks):
    """A slot sink that hands each chunk to every one of `sinks`."""

    def sink(rows):
        for each in sinks:
            each(rows)

    return sink
