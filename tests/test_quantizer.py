import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brqsim import quantizer
from brqsim.analytics import binary_entropy
from brqsim.errors import (
    BudgetExceededError,
    FeedbackDecodeError,
    InsufficientFeedbackError,
)
from brqsim.quantizer import (
    QuantizerConfig,
    block_bits,
    decode_feedback_block,
    effective_snr,
    encode_feedback_block,
    plan_cell_width,
    planned_config,
    quantize_snr,
    representative,
)

P_R = math.exp(-2.0)


def config(feedback_bits=2.0, block_length=4, gamma_r=3.0, cell_width=1.5):
    return QuantizerConfig(
        feedback_bits=feedback_bits,
        block_length=block_length,
        gamma_r=gamma_r,
        cell_width=cell_width,
    )


class TestEffectiveSnr:
    def test_plain(self):
        assert effective_snr(5.0, 2.0) == 3.0

    def test_clamps_at_zero(self):
        assert effective_snr(1.0, 2.0) == 0.0

    def test_zero_loss_boundary(self):
        snr = 4.2
        assert effective_snr(snr + 1.0, 1.0) == pytest.approx(snr)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            effective_snr(-1.0, 0.0)


class TestQuantizeSnr:
    def test_lowest_cell(self):
        cfg = config(cell_width=1.0)
        assert quantize_snr(0.0, cfg) == 0
        assert representative(0, cfg) == 1.0
        assert effective_snr(representative(0, cfg), 1.0) == 0.0

    def test_floor_arithmetic(self):
        cfg = config(cell_width=1.0)  # gamma_r 3, K = 3
        cell = quantize_snr(2.5, cfg)
        assert cell == 2
        assert representative(cell, cfg) == 3.0
        assert effective_snr(3.0, 1.0) == 2.0 <= 2.5

    def test_rejects_decodable_snr(self):
        cfg = config()
        with pytest.raises(ValueError):
            quantize_snr(3.0, cfg)
        with pytest.raises(ValueError):
            quantize_snr(-0.1, cfg)

    def test_safety_property_randomized(self):
        # 1e5 random SNRs: the lower bound never exceeds the true value
        # and undershoots by less than one cell width.
        rng = np.random.default_rng(42)
        cfg = QuantizerConfig(
            feedback_bits=4.0, block_length=8, gamma_r=20.0, cell_width=2.5
        )
        for snr in rng.uniform(0.0, 20.0 - 1e-9, 100_000):
            lo = effective_snr(
                representative(quantize_snr(snr, cfg), cfg), cfg.cell_width
            )
            assert lo <= snr < lo + cfg.cell_width


class TestConfig:
    def test_cell_count_covers_threshold(self):
        cfg = config(cell_width=1.5)
        assert cfg.cell_count == 2
        assert cfg.cell_count * cfg.cell_width >= cfg.gamma_r

    def test_exact_division_edge(self):
        cfg = QuantizerConfig(
            feedback_bits=2.0, block_length=4, gamma_r=20.0, cell_width=20.0 / 8.0
        )
        assert cfg.cell_count == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            config(cell_width=0.0)
        with pytest.raises(ValueError):
            config(gamma_r=0.0)


class TestCombinationCoding:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_rank_unrank_bijective(self, n):
        for k in range(n + 1):
            seen = set()
            for combo in itertools.combinations(range(n), k):
                rank = quantizer._rank_combination(combo, n)
                assert 0 <= rank < math.comb(n, k)
                assert quantizer._unrank_combination(rank, n, k) == combo
                seen.add(rank)
            assert len(seen) == math.comb(n, k)


class TestEncodeDecode:
    def test_all_success_costs_only_the_mask(self):
        cfg = config(cell_width=1.5)
        block = encode_feedback_block([4.0, 5.0, 3.0, 9.0], cfg)
        assert block.success_mask == (True, True, True, True)
        assert block.cell_indices == ()
        # count field only: C(4,4) = 1 -> no pattern bits, no cells
        assert len(block.bits) == 3
        assert decode_feedback_block(block, cfg) == (None, None, None, None)

    def test_hand_enumerated_budget_overflow(self):
        # L=4, F=2, gamma_r=3, d=1 (K=3): mask (1,0,0,0) costs
        # ceil(log2 5) + ceil(log2 4) = 5 bits, plus 3 cells of 2 bits
        # each = 11 bits > floor(4 * 2) = 8.
        cfg = config(cell_width=1.0)
        with pytest.raises(BudgetExceededError):
            encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)

    def test_hand_enumerated_layout_after_widening(self):
        # Same block with d = 1.5 (K = 2) fits exactly: count '001',
        # pattern rank 0 -> '00', cells 0,1,0 -> '0','1','0'.
        cfg = config(cell_width=1.5)
        block = encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)
        assert block.bits == "00100010"
        assert block.success_mask == (True, False, False, False)
        assert block.cell_indices == (0, 1, 0)
        decoded = decode_feedback_block(block, cfg)
        assert decoded[0] is None
        assert decoded[1] == pytest.approx(1.5)
        assert decoded[2] == pytest.approx(3.0)
        assert decoded[3] == pytest.approx(1.5)
        # fidelity: the reported lower bound never exceeds the true SNR
        for snr, rep in zip([4.0, 0.2, 2.9, 1.1], decoded):
            if rep is not None:
                assert effective_snr(rep, cfg.cell_width) <= snr

    def test_roundtrip_random_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            length = int(rng.integers(2, 12))
            gamma_r = float(rng.uniform(1.0, 30.0))
            cells = int(2 ** rng.integers(0, 4))
            cfg = QuantizerConfig(
                feedback_bits=16.0,
                block_length=length,
                gamma_r=gamma_r,
                cell_width=gamma_r / cells,
            )
            snrs = rng.uniform(0.0, 2.0 * gamma_r, length)
            block = encode_feedback_block(snrs, cfg)
            decoded = decode_feedback_block(block.bits, cfg)
            for snr, rep in zip(snrs, decoded):
                if snr >= gamma_r:
                    assert rep is None
                else:
                    cell = quantize_snr(float(snr), cfg)
                    assert rep == pytest.approx((cell + 1) * cfg.cell_width)
            assert len(block.bits) <= cfg.bit_budget

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.5, max_value=50.0),
        st.data(),
    )
    def test_length_matches_block_bits(self, length, log_cells, gamma_r, data):
        # the array kernel budgets blocks from this table instead of encoding them
        cells = 2**log_cells
        cfg = QuantizerConfig(
            feedback_bits=32.0,
            block_length=length,
            gamma_r=gamma_r,
            cell_width=gamma_r / cells,
        )
        slot = st.one_of(
            st.floats(min_value=gamma_r, max_value=2.0 * gamma_r),
            st.floats(min_value=0.0, max_value=gamma_r, exclude_max=True),
        )
        snrs = data.draw(st.lists(slot, min_size=length, max_size=length))
        successes = sum(s >= gamma_r for s in snrs)
        table = block_bits(length, cells)
        assert len(table) == length + 1
        assert len(encode_feedback_block(snrs, cfg).bits) == table[successes]

    def test_truncated_bits_rejected(self):
        cfg = config(cell_width=1.5)
        block = encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)
        with pytest.raises(FeedbackDecodeError):
            decode_feedback_block(block.bits[:-1], cfg)

    def test_garbage_bits_rejected(self):
        cfg = config(cell_width=1.5)
        with pytest.raises(FeedbackDecodeError):
            decode_feedback_block("00a00010", cfg)

    def test_trailing_bits_rejected(self):
        cfg = config(cell_width=1.5)
        block = encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)
        with pytest.raises(FeedbackDecodeError):
            decode_feedback_block(block.bits + "0", cfg)


def brute_force_best_cells(feedback_bits, block_length, budget):
    """Largest power-of-two cell count whose all-failed block fits."""
    best = None
    k = 1
    while k <= 2**20:
        cost = quantizer._bits_for(block_length + 1) + block_length * quantizer._bits_for(k)
        if cost <= budget:
            best = k
        k *= 2
    return best


class TestPlanCellWidth:
    def test_matches_exhaustive_search(self):
        for feedback_bits in (1.0, 2.0, 4.0, 8.0):
            for block_length in (4, 16, 64):
                gamma_r = 21.0
                budget = math.floor(block_length * feedback_bits)
                expect = brute_force_best_cells(feedback_bits, block_length, budget)
                width = plan_cell_width(feedback_bits, block_length, P_R, gamma_r)
                assert width == pytest.approx(gamma_r / expect)
                cfg = QuantizerConfig(
                    feedback_bits=feedback_bits,
                    block_length=block_length,
                    gamma_r=gamma_r,
                    cell_width=width,
                )
                all_failed = [0.0] * block_length
                assert len(encode_feedback_block(all_failed, cfg).bits) <= budget

    def test_large_budget_gives_fine_cells(self):
        width = plan_cell_width(8.0, 64, P_R, 21.0)
        # budget 512; mask worst case 7 bits; 64 cells of b bits each
        # fit while 7 + 64 b <= 512, so b = 7 and K = 128.
        assert width == pytest.approx(21.0 / 128.0)

    def test_budget_at_mask_cost_rejected(self):
        with pytest.raises(InsufficientFeedbackError):
            plan_cell_width(binary_entropy(P_R), 64, P_R, 21.0)

    def test_single_cell_degenerate(self):
        # F=1, L=64: budget 64, only K = 1 or 2 fit; with gamma_r small
        # relative to budget the planner still returns gamma_r / K.
        width = plan_cell_width(1.0, 64, P_R, 21.0)
        assert width in (21.0, 21.0 / 2.0)
        cfg = planned_config(1.0, 64, P_R, 21.0)
        assert cfg.cell_count * cfg.cell_width >= cfg.gamma_r

    def test_infeasible_even_single_cell(self):
        # L=2 slots, tiny fractional budget: floor(2 * 0.6) = 1 bit
        # cannot carry the 2-bit success count.
        with pytest.raises(InsufficientFeedbackError):
            plan_cell_width(0.6, 2, 0.9, 5.0)

    def test_monotone_in_budget_and_block_length(self):
        widths_f = [plan_cell_width(f, 64, P_R, 21.0) for f in (1, 2, 4, 8)]
        assert all(b <= a for a, b in zip(widths_f, widths_f[1:]))
        widths_l = [plan_cell_width(2.0, n, P_R, 21.0) for n in (4, 8, 32, 128)]
        assert all(b <= a for a, b in zip(widths_l, widths_l[1:]))
