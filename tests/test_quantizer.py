import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
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
    cells,
    decode_feedback_block,
    encode_feedback_block,
    planned_config,
)

P_R = math.exp(-2.0)


def config(feedback_bits=2.0, block_length=4, gamma_r=3.0, cell_count=2):
    return QuantizerConfig(
        feedback_bits=feedback_bits,
        block_length=block_length,
        gamma_r=gamma_r,
        cell_count=cell_count,
    )


def reports(snrs, cfg):
    """What the transmitter sees for a block: its bits encoded and decoded."""
    return decode_feedback_block(encode_feedback_block(snrs, cfg).bits, cfg)


class TestEffectiveSnr:
    """The transmitter's effective SNR is the decoded cell's lower edge."""

    def test_plain(self):
        cfg = config(feedback_bits=4.0, cell_count=3)  # d = 1
        assert reports([2.5, 1.5, 0.5, 3.5], cfg) == (2.0, 1.0, 0.0, None)

    def test_clamps_at_zero(self):
        cfg = config(feedback_bits=4.0, cell_count=3)
        assert reports([0.0, 0.3, 0.999, 5.0], cfg) == (0.0, 0.0, 0.0, None)

    def test_zero_loss_boundary(self):
        # an SNR on a cell edge c * d is reported exactly
        cfg = QuantizerConfig(feedback_bits=4.0, block_length=8, gamma_r=20.0, cell_count=8)
        edges = [c * cfg.cell_width for c in range(8)]
        assert cells(edges, cfg).tolist() == list(range(8))
        assert reports(edges, cfg) == tuple(edges)

    def test_rejects_negative(self):
        cfg = config()
        with pytest.raises(ValueError):
            cells([-1.0], cfg)
        with pytest.raises(ValueError):
            encode_feedback_block([-0.1, 1.0, 1.0, 1.0], cfg)


class TestQuantizeSnr:
    def test_lowest_cell(self):
        cfg = config(feedback_bits=4.0, cell_count=3)
        assert cells([0.0], cfg).tolist() == [0]
        assert reports([0.0, 0.0, 0.0, 0.0], cfg) == (0.0, 0.0, 0.0, 0.0)

    def test_floor_arithmetic(self):
        cfg = config(feedback_bits=4.0, cell_count=3)  # gamma_r 3, d = 1
        assert cells([0.5, 1.0, 1.5, 2.0, 2.5, 2.999], cfg).tolist() == [0, 1, 1, 2, 2, 2]

    def test_decodable_snr_takes_top_cell(self):
        # the encoder sends decodable slots as acks; an array caller such as
        # the session kernel may still pass them, and gets the top cell
        cfg = config(feedback_bits=4.0, cell_count=3)
        assert cells([3.0, 7.5, math.inf], cfg).tolist() == [2, 2, 2]

    def test_safety_property_randomized(self):
        # 1e5 random SNRs: the lower bound never exceeds the true value
        # and undershoots by less than one cell width.
        rng = np.random.default_rng(42)
        cfg = QuantizerConfig(feedback_bits=4.0, block_length=8, gamma_r=20.0, cell_count=8)
        snrs = rng.uniform(0.0, 20.0 - 1e-9, 100_000)
        lo = cells(snrs, cfg) * cfg.cell_width
        assert np.all(lo <= snrs)
        assert np.all(snrs < lo + cfg.cell_width)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10), st.floats(min_value=1e-3, max_value=1e4))
    def test_edges_within_three_ulps(self, log_cells, gamma_r):
        count = 2**log_cells
        cfg = QuantizerConfig(
            feedback_bits=64.0, block_length=2, gamma_r=gamma_r, cell_count=count
        )
        d = cfg.cell_width
        snrs = [np.arange(count + 1) * d]
        for direction in (-np.inf, np.inf):
            near = snrs[0]
            for _ in range(3):
                near = np.nextafter(near, direction)
                snrs.append(near)
        snrs = np.concatenate(snrs)
        snrs = snrs[snrs >= 0.0]
        c = cells(snrs, cfg)
        assert np.all((0 <= c) & (c < count))
        assert np.all(c * d <= snrs)
        inner = c < count - 1
        assert np.all(snrs[inner] < (c[inner] + 1) * d)


class TestConfig:
    def test_cell_count_covers_threshold(self):
        cfg = config(cell_count=2)
        assert cfg.cell_width == 1.5
        assert cfg.cell_count * cfg.cell_width == cfg.gamma_r
        assert cells([np.nextafter(cfg.gamma_r, 0.0)], cfg).tolist() == [1]

    def test_exact_division_edge(self):
        # d = 7/3 is not exact: every edge c * d still holds cell c, and the
        # SNR just below gamma_r the top cell
        cfg = config(feedback_bits=4.0, gamma_r=7.0, cell_count=3)
        edges = [c * cfg.cell_width for c in range(3)]
        assert cells(edges, cfg).tolist() == [0, 1, 2]
        assert cells([np.nextafter(7.0, 0.0)], cfg).tolist() == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            config(cell_count=0)
        with pytest.raises(ValueError):
            config(gamma_r=0.0)
        with pytest.raises(ValueError):
            config(block_length=0)
        with pytest.raises(ValueError):
            config(feedback_bits=-1.0)
        for fbits in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                config(feedback_bits=fbits)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                planned_config(fbits, 4, 3.0)

    def test_cell_count_capped_at_2_52(self):
        assert quantizer.MAX_CELL_COUNT == 2**52
        cfg = config(feedback_bits=2000.0, block_length=2, cell_count=2**52)
        with pytest.raises(ValueError, match="cell_count must lie in"):
            config(feedback_bits=2000.0, block_length=2, cell_count=2**52 + 1)
        # the top cells stay apart and in range, and no cast wraps
        snrs = [0.0, cfg.cell_width, np.nextafter(3.0, 0.0), 3.0, 1e300]
        got = cells(snrs, cfg)
        assert got.tolist() == [0, 1, 2**52 - 1, 2**52 - 1, 2**52 - 1]
        assert (got * cfg.cell_width <= snrs).all()


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
        cfg = config()
        block = encode_feedback_block([4.0, 5.0, 3.0, 9.0], cfg)
        assert block.success_mask == (True, True, True, True)
        assert block.cell_indices == ()
        # count field only: C(4,4) = 1 -> no pattern bits, no cells
        assert len(block.bits) == 3
        assert decode_feedback_block(block.bits, cfg) == (None, None, None, None)

    def test_hand_enumerated_budget_overflow(self):
        # L=4, F=2, K=3: mask (1,0,0,0) costs ceil(log2 5) + ceil(log2 4)
        # = 5 bits, plus 3 cells of 2 bits each = 11 bits > floor(4 * 2) = 8,
        # so no such quantizer can be built.
        assert max(block_bits(4, 3)) == 11
        with pytest.raises(BudgetExceededError, match="11 bits, budget is 8"):
            config(cell_count=3)

    def test_hand_enumerated_layout_after_widening(self):
        # Same block with K = 2 (d = 1.5) fits: count '001', pattern rank
        # 0 -> '00', cells 0,1,0 -> '0','1','0'.
        cfg = config(cell_count=2)
        block = encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)
        assert block.bits == "00100010"
        assert block.success_mask == (True, False, False, False)
        assert block.cell_indices == (0, 1, 0)
        # each failed slot reads back as its cell's lower edge
        assert decode_feedback_block(block.bits, cfg) == (None, 0.0, 1.5, 0.0)

    def test_roundtrip_random_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            length = int(rng.integers(2, 12))
            gamma_r = float(rng.uniform(1.0, 30.0))
            cfg = QuantizerConfig(
                feedback_bits=16.0,
                block_length=length,
                gamma_r=gamma_r,
                cell_count=int(2 ** rng.integers(0, 4)),
            )
            snrs = rng.uniform(0.0, 2.0 * gamma_r, length)
            block = encode_feedback_block(snrs, cfg)
            decoded = decode_feedback_block(block.bits, cfg)
            for snr, rep, cell in zip(snrs, decoded, cells(snrs, cfg)):
                if snr >= gamma_r:
                    assert rep is None
                else:
                    assert rep == cell * cfg.cell_width <= snr
            assert len(block.bits) <= cfg.bit_budget

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.5, max_value=50.0),
        st.data(),
    )
    def test_length_matches_block_bits(self, length, log_cells, gamma_r, data):
        # the config's budget check reads this table instead of encoding blocks
        cells = 2**log_cells
        cfg = QuantizerConfig(
            feedback_bits=32.0,
            block_length=length,
            gamma_r=gamma_r,
            cell_count=cells,
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
        cfg = config()
        block = encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)
        with pytest.raises(FeedbackDecodeError):
            decode_feedback_block(block.bits[:-1], cfg)

    def test_garbage_bits_rejected(self):
        cfg = config()
        with pytest.raises(FeedbackDecodeError):
            decode_feedback_block("00a00010", cfg)

    def test_trailing_bits_rejected(self):
        cfg = config()
        block = encode_feedback_block([4.0, 0.2, 2.9, 1.1], cfg)
        with pytest.raises(FeedbackDecodeError):
            decode_feedback_block(block.bits + "0", cfg)


def worst_block_bits(block_length, cells):
    """Costliest block over its success count k, from the field widths."""
    return max(
        math.ceil(math.log2(block_length + 1))
        + math.ceil(math.log2(math.comb(block_length, k)))
        + (block_length - k) * math.ceil(math.log2(cells))
        for k in range(block_length + 1)
    )


class TestBlockBits:
    """`block_bits` equals its docstring's field widths, written out here
    from `math.comb`, up to L = 1024 and K = 2**52."""

    @staticmethod
    def from_comb(block_length, cells):
        def width(count):
            return (count - 1).bit_length()

        return [
            width(block_length + 1) + width(math.comb(block_length, k))
            + (block_length - k) * width(cells)
            for k in range(block_length + 1)
        ]

    @pytest.mark.parametrize("cells", [1, 2, 3, 2**52])
    def test_equals_the_binomial_form(self, cells):
        for block_length in [*range(1, 301), 1024]:
            assert block_bits(block_length, cells) == self.from_comb(block_length, cells)

    def test_plans_a_large_block_in_linear_time(self):
        # one math.comb call per k took about 0.9 s at L = 4096; the one-pass
        # recurrence builds the row in a few ms
        quantizer._pattern_bits.cache_clear()
        start = time.perf_counter()
        config = planned_config(2.0, 4096, 20.0)
        assert time.perf_counter() - start < 0.5
        assert max(block_bits(4096, config.cell_count)) <= config.bit_budget


def brute_force_best_cells(block_length, budget):
    """Largest power-of-two cell count whose worst block fits, or None."""
    best = None
    for k in (2**j for j in range(21)):
        if worst_block_bits(block_length, k) <= budget:
            best = k
    return best


def block_with_successes(block_length, k, gamma_r):
    """k decodable slots followed by failed slots spread over [0, gamma_r)."""
    failed = np.linspace(0.0, gamma_r, block_length - k, endpoint=False)
    return [2.0 * gamma_r] * k + failed.tolist()


class TestPlanCellWidth:
    def test_matches_exhaustive_search(self):
        gamma_r = 21.0
        for feedback_bits in (1.0, 1.5, 2.0, 2.5, 4.0, 8.0):
            for block_length in (4, 16, 64):
                budget = math.floor(block_length * feedback_bits)
                expect = brute_force_best_cells(block_length, budget)
                if expect is None:
                    with pytest.raises(InsufficientFeedbackError):
                        planned_config(feedback_bits, block_length, gamma_r)
                    continue
                cfg = planned_config(feedback_bits, block_length, gamma_r)
                assert cfg.cell_count == expect
                assert cfg.cell_width == gamma_r / expect
                for k in range(block_length + 1):
                    snrs = block_with_successes(block_length, k, gamma_r)
                    assert len(encode_feedback_block(snrs, cfg).bits) <= budget

    @pytest.mark.parametrize("feedback_bits", [1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0])
    @pytest.mark.parametrize("block_length", [2, 4, 8, 16, 32, 64, 128])
    def test_doubled_cell_count_overflows(self, feedback_bits, block_length):
        try:
            cfg = planned_config(feedback_bits, block_length, 21.0)
        except InsufficientFeedbackError:
            assert max(block_bits(block_length, 1)) > math.floor(block_length * feedback_bits)
            return
        with pytest.raises(BudgetExceededError):
            QuantizerConfig(feedback_bits, block_length, 21.0, 2 * cfg.cell_count)

    @pytest.mark.parametrize("feedback_bits", [1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 8.0])
    def test_cell_count_within_the_counting_bound(self, feedback_bits):
        # A block code that gives each failed slot one of K cells names
        # (K + 1)^L reports, an ack or a cell per slot, in 2^floor(L F)
        # codewords: K <= 2^(floor(L F) / L) - 1, e.g. K = 4 against 4.66
        # at F = 2.5, L = 64.  Where planning fails there is no K.
        for block_length in range(2, 129):
            try:
                count = planned_config(feedback_bits, block_length, 20.0).cell_count
            except InsufficientFeedbackError:
                continue
            budget = math.floor(block_length * feedback_bits)
            assert (count + 1) ** block_length <= 2**budget, block_length

    def test_large_budget_gives_fine_cells(self):
        cfg = planned_config(8.0, 64, 21.0)
        # budget 512; count field 7 bits; the all-failed block is the
        # costliest at 7 bits per cell, since each success adds at most
        # 6 mask bits and removes one cell: 7 + 64 b <= 512, so b = 7.
        assert cfg.cell_count == 128
        assert cfg.cell_width == 21.0 / 128.0

    def test_budget_at_mask_cost_rejected(self):
        # For L >= 2 the worst mask alone (count plus pattern) costs more
        # than L bits, so no F <= 1, such as F = H(p_R), can carry it.
        for block_length in (2, 4, 16, 64, 128):
            assert max(block_bits(block_length, 1)) > block_length
            for feedback_bits in (binary_entropy(P_R), 1.0):
                with pytest.raises(InsufficientFeedbackError):
                    planned_config(feedback_bits, block_length, 21.0)

    def test_single_cell_degenerate(self):
        # F=1.5, L=64: budget 96 fits the worst mask (7 + 61 bits) but not
        # one bit per failed slot on top of it, so K = 1 and every failed
        # slot reports 0.
        cfg = planned_config(1.5, 64, 21.0)
        assert cfg.cell_count == 1
        assert cfg.cell_width == 21.0
        assert cells([0.0, 10.0, np.nextafter(21.0, 0.0)], cfg).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("feedback_bits", [70.0, 2000.0])
    def test_planned_cell_count_capped(self, feedback_bits):
        # without the cap these budgets fit K >= 2**63 cells
        assert max(block_bits(2, 2**63)) <= math.floor(2 * feedback_bits)
        assert planned_config(feedback_bits, 2, 21.0).cell_count == 2**52

    @pytest.mark.parametrize("feedback_bits, cell_counts", [
        # K at L = 2, 4, 8, 16, 64, 256, 1024: one power of two for every
        # failed slot, sized for the worst block, so pooling L slots buys
        # nothing at an integer F
        (1.5, [1, 1, 1, 1, 1, 1, 1]),
        (2.0, [2, 2, 2, 2, 2, 2, 2]),
        (2.25, [2, 2, 2, 2, 2, 2, 2]),
        (2.5, [2, 2, 2, 2, 4, 4, 4]),
        (3.0, [4, 4, 4, 4, 4, 4, 4]),
        (3.5, [4, 4, 8, 8, 8, 8, 8]),
        (4.0, [8, 8, 8, 8, 8, 8, 8]),
        (5.0, [16, 16, 16, 16, 16, 16, 16]),
    ])
    def test_cell_count_table(self, feedback_bits, cell_counts):
        lengths = [2, 4, 8, 16, 64, 256, 1024]
        got = [planned_config(feedback_bits, n, 20.0).cell_count for n in lengths]
        assert got == cell_counts

    def test_infeasible_even_single_cell(self):
        # L=2 slots, tiny fractional budget: floor(2 * 0.6) = 1 bit
        # cannot carry the 2-bit success count.
        with pytest.raises(InsufficientFeedbackError):
            planned_config(0.6, 2, 5.0)

    def test_monotone_in_budget_and_block_length(self):
        widths_f = [planned_config(f, 64, 21.0).cell_width for f in (1.5, 2, 4, 8)]
        assert all(b <= a for a, b in zip(widths_f, widths_f[1:]))
        widths_l = [planned_config(2.0, n, 21.0).cell_width for n in (4, 8, 32, 128)]
        assert all(b <= a for a, b in zip(widths_l, widths_l[1:]))
