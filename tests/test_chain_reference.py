import pytest
from chain_reference import reward_of_chain

from brqsim.channel import capacity


class TestRewardOfChain:
    def test_empty_chain(self):
        assert reward_of_chain(2.0, 100, []) == pytest.approx(200.0)

    def test_two_outage_slots(self):
        got = reward_of_chain(2.0, 100, [1.0, 0.5])
        assert got == pytest.approx(100 * (2.0 + 1.0 + capacity(0.5)))

    def test_rejects_decodable_snr(self):
        with pytest.raises(ValueError):
            reward_of_chain(2.0, 100, [3.0])
