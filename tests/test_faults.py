"""A catalogue of known faults, each with a check that must catch it.

Each entry names a module of `brqsim`, a snippet of its source, the
snippet that puts the fault in, and a check: a function of the module
that is true on sound code.  The test asserts that the snippet occurs
exactly once, so a refactor that moves it fails here and must update the
entry; that the check holds on the module as it is; and that it fails on
a throwaway copy of the module with the fault put in.

Which check catches each fault (tier-1 run on a copy of the tree with the
fault put in; the runtime verdict is `integrity` in `simulate`'s summary):

| fault              | check here           | runtime verdict | also caught in tier-1 by |
| ------------------ | -------------------- | --------------- | ------------------------ |
| echo-by-value      | `slot_log_matches`   | pass            | `TestSlotLogWriter`      |
| joint-bits-always  | `slot_log_matches`   | pass            | `TestSlotLogWriter`      |
| parity-rounds-down | `integer_session_ok` | fail (exit 4)   | see below                |

Rounding the parity down is also caught by `TestIntegrity`,
`TestParityBitCount`, `TestKernelMatchesStateMachine`,
`TestDeliveredBitsIdentity`, the output digest and acceptance criterion 5.
The two slot-log faults change only the bytes of the log, which no
runtime check reads, and the output digest does not catch them: the
fixed chunk here and `TestSlotLogWriter`'s drawn chunks are all that see
them.
"""

import pathlib
import sys
import types

import csv_reference
import numpy as np
import pytest

from brqsim import cli, protocol
from brqsim.channel import LinkConfig, Rayleigh
from brqsim.protocol import SlotRows

# One process.  Slot 1 reports 0.0 after an SNR of -0.0, which is not an
# echo of it, and both slots carry parity 1.0 with different new bits.
_CHUNK = SlotRows(
    start=0, processes=1,
    snr=np.array([-0.0, 1.5]), fed=np.array([False, True]), eff_snr=np.array([0.0, 0.0]),
    parity_bits=np.array([1.0, 1.0]), new_bits=np.array([2.0, 3.0]),
    decoded=np.array([False, True]), chain_length=np.array([2]), reward_bits=np.array([5.0]),
)
_CHUNK_ROWS = [
    [0, 0, 0, -0.0, None, 1.0, 2.0, False, False, 0, 0.0],
    [0, 1, 0, 1.5, 0.0, 1.0, 3.0, True, True, 2, 5.0],
]


def slot_log_matches(module, tmp_path) -> bool:
    """`module._SlotLog` writes `_CHUNK` as the reference writer does."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    with module._SlotLog(str(got)) as log:
        log(0, _CHUNK)
    csv_reference.write_csv(str(want), module._SLOT_LOG_HEADER, _CHUNK_ROWS)
    return got.read_bytes() == want.read_bytes()


def integer_session_ok(module, tmp_path) -> bool:
    """A 4000-slot integer full-CSIT session at R = 4 reassembles its
    payload."""
    link = LinkConfig(rate=4.0, slot_uses=100, accounting="integer")
    log = module.run_full_csit(link, Rayleigh(10.0), 4000, np.random.default_rng(1))
    return log.integrity_ok


FAULTS = [
    ("echo-by-value", cli,
     "(eff[p:].view(np.int64) == snr[:-p].view(np.int64))",
     "(eff[p:] == snr[:-p])",
     slot_log_matches),
    ("joint-bits-always", cli,
     "if not np.array_equal(news[at], new_keys):",
     "if False:",
     slot_log_matches),
    ("parity-rounds-down", protocol,
     "np.ceil(raw - _PARITY_TOL)",
     "np.floor(raw)",
     integer_session_ok),
]


def mutated(module, old: str, new: str):
    """A throwaway copy of `module` with `old` replaced by `new`, imported
    as a module of `brqsim` so that its relative imports resolve."""
    source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times"
    name = module.__name__ + "_with_fault"
    copy = types.ModuleType(name)
    copy.__package__ = "brqsim"
    sys.modules[name] = copy  # before exec: dataclasses look their module up
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    finally:
        del sys.modules[name]
    return copy


@pytest.mark.parametrize("module, old, new, check",
                         [entry[1:] for entry in FAULTS], ids=[entry[0] for entry in FAULTS])
def test_fault_is_caught(tmp_path, module, old, new, check):
    assert check(module, tmp_path)
    assert not check(mutated(module, old, new), tmp_path)
