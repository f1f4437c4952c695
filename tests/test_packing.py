"""First-fit-decreasing packing, metadata, waste reporting, manifests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mutants import sequence_dict
from navit_pack import selfcheck
from navit_pack.encoder import AttentionParams, PatchSequence, RopeConfig, block_diag_forward
from navit_pack.geometry import ImageSize, PixelBudget, plan_resize
from navit_pack.packing import (
    PAD_POSITION,
    PackedSequence,
    SampleRecord,
    SampleTooLong,
    build_attention_metadata,
    pack_ffd,
    packing_report,
    parse_manifest_line,
    sample_from_record,
)
from navit_pack.records import ManifestError
from navit_pack.selfcheck import _dense_block_attention, linear_first_fit, optimal_bin_count


def samples_of(lengths):
    return [SampleRecord(f"s{i:03d}", n) for i, n in enumerate(lengths)]


def report_of(samples, capacity, batch_size):
    return packing_report(samples, pack_ffd(samples, capacity), capacity, batch_size)


def contents_of(sequences):
    return [[sid for sid, _ in seq.lengths] for seq in sequences]


class TestPackFfd:
    def test_hand_traced_example(self):
        samples = samples_of([7, 5, 4, 4, 2])
        seqs = pack_ffd(samples, capacity=10)
        contents = contents_of(seqs)
        assert contents == [["s000", "s004"], ["s001", "s002"], ["s003"]]
        assert [s.pad_tokens for s in seqs] == [1, 1, 6]
        assert contents == linear_first_fit(samples, 10)

    def test_exact_fit_single_sample(self):
        (seq,) = pack_ffd(samples_of([10]), capacity=10)
        assert seq.pad_tokens == 0
        assert seq.segments == (("s000", 0, 10),)

    def test_unit_lengths_fill_exactly(self):
        seqs = pack_ffd(samples_of([1] * 12), capacity=4)
        assert len(seqs) == 3
        assert all(s.pad_tokens == 0 for s in seqs)

    def test_too_long_rejected_with_ids(self):
        with pytest.raises(SampleTooLong) as err:
            pack_ffd(samples_of([3, 12, 5, 20]), capacity=10)
        assert err.value.ids == ["s001", "s003"]

    def test_too_long_message_is_bounded(self):
        with pytest.raises(SampleTooLong) as err:
            pack_ffd(samples_of([20] * 13 + [3]), capacity=10)
        ids = [f"s{i:03d}" for i in range(13)]
        assert err.value.ids == ids
        shown = ", ".join(f"'{i}'" for i in ids[:10])
        assert str(err.value) == f"13 samples exceed capacity 10: {shown}, ... (3 more)"

    def test_duplicate_ids_rejected(self):
        dup = [SampleRecord("same", 3), SampleRecord("same", 4)]
        with pytest.raises(ValueError, match="duplicate"):
            pack_ffd(dup, capacity=10)

    def test_deterministic(self):
        lengths = list(np.random.default_rng(0).integers(1, 50, 200))
        a = pack_ffd(samples_of(lengths), capacity=64)
        b = pack_ffd(samples_of(lengths), capacity=64)
        assert a == b

    @given(
        st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=40),
        st.integers(min_value=16, max_value=40),
    )
    def test_conservation_and_capacity(self, lengths, capacity):
        samples = samples_of(lengths)
        seqs = pack_ffd(samples, capacity)
        placed = [seg for s in seqs for seg in s.segments]
        assert sorted(sid for sid, _, _ in placed) == sorted(s.id for s in samples)
        assert sum(length for _, _, length in placed) == sum(lengths)
        by_id = {s.id: s.total_tokens for s in samples}
        for sid, _, length in placed:
            assert length == by_id[sid]  # never split
        for s in seqs:
            assert sum(seg[2] for seg in s.segments) + s.pad_tokens == s.capacity == capacity

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10))
    def test_ffd_bound_against_exhaustive_opt(self, lengths):
        capacity = 12
        seqs = pack_ffd(samples_of(lengths), capacity)
        opt = optimal_bin_count(lengths, capacity)
        assert len(seqs) <= math.ceil(11.0 / 9.0 * opt) + 1
        assert len(seqs) >= opt or not lengths

    def test_verify_reports_a_count_above_the_bound(self, monkeypatch):
        # An optimum of 0 bins sets the bound to 1, which seed 0's first
        # manifest of more than one sequence exceeds.
        monkeypatch.setattr(selfcheck, "optimal_bin_count", lambda lengths, capacity: 0)
        assert selfcheck.check_ffd_opt(0) == (False, "4 sequences exceeds bound 1 (opt 0)")


class TestSegmentTreeFirstFit:
    """`pack_ffd` gives exactly the bins of the linear first-fit oracle."""

    @staticmethod
    def assert_matches_oracle(samples, capacity):
        seqs = pack_ffd(samples, capacity)
        assert contents_of(seqs) == linear_first_fit(samples, capacity)

    def test_equal_lengths_ties_broken_by_id(self):
        ids = [f"id{i}" for i in np.random.default_rng(1).permutation(30)]
        samples = [SampleRecord(sid, 5) for sid in ids]
        self.assert_matches_oracle(samples, 12)
        assert contents_of(pack_ffd(samples, 12))[0] == ["id0", "id1"]

    def test_capacity_one(self):
        samples = samples_of([1] * 17)
        self.assert_matches_oracle(samples, 1)
        assert len(pack_ffd(samples, 1)) == 17

    def test_samples_of_exactly_capacity(self):
        samples = samples_of([10, 3, 10, 7, 10])
        self.assert_matches_oracle(samples, 10)
        assert [s.pad_tokens for s in pack_ffd(samples, 10)] == [0, 0, 0, 0]

    def test_many_open_bins(self):
        # 300 bins open with 49 free, then a run of small samples must go
        # to the leftmost of them, and the leftmost only, every time.
        lengths = [51] * 300 + [49] * 150 + [20] * 200 + [3] * 500 + [1] * 97
        self.assert_matches_oracle(samples_of(lengths), 100)

    def test_random_many_bins(self):
        lengths = np.random.default_rng(2).integers(1, 300, 1500).tolist()
        self.assert_matches_oracle(samples_of(lengths), 301)

    @given(st.data())
    def test_matches_linear_first_fit(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=40), label="capacity")
        lengths = data.draw(
            st.lists(st.integers(min_value=1, max_value=capacity), max_size=80), label="lengths"
        )
        ids = data.draw(
            st.lists(
                st.text("abcd", min_size=1, max_size=4),
                min_size=len(lengths),
                max_size=len(lengths),
                unique=True,
            ),
            label="ids",
        )
        samples = [SampleRecord(sid, n) for sid, n in zip(ids, lengths)]
        self.assert_matches_oracle(samples, capacity)


class TestOptimalBinCount:
    def test_against_brute_force_assignments(self):
        # Cross-check the branch-and-bound oracle by trying every
        # assignment of items to bin indices on tiny instances.
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            capacity = 10
            lengths = [int(rng.integers(1, 11)) for _ in range(n)]
            best = n
            for assignment in itertools.product(range(n), repeat=n):
                loads = [0] * n
                for item, b in zip(lengths, assignment):
                    loads[b] += item
                if max(loads) <= capacity:
                    best = min(best, sum(1 for load in loads if load))
            assert optimal_bin_count(lengths, capacity) == best

    def test_item_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError):
            optimal_bin_count([4, 99], 10)


class TestNaiveBaseline:
    """The report's naive side: each batch of `batch_size` samples, in input
    order, padded to its longest."""

    def test_two_lengths_one_batch(self):
        # 20 slots, 9 of them padding; packed, the 11 tokens take 11 slots.
        report = report_of(samples_of([10, 1]), capacity=11, batch_size=2)
        assert report.naive_pad_fraction == 9 / 20
        assert report.useful_token_speedup_proxy == 20 / 11

    def test_equal_lengths_no_padding(self):
        report = report_of(samples_of([6] * 9), capacity=12, batch_size=4)
        assert report.naive_pad_fraction == 0.0

    def test_batch_size_one_no_padding(self):
        # 13 slots, none of them padding, against one 13-token sequence.
        report = report_of(samples_of([3, 9, 1]), capacity=13, batch_size=1)
        assert report.naive_pad_fraction == 0.0
        assert report.useful_token_speedup_proxy == 1.0

    def test_batch_size_below_one_rejected_unless_empty(self):
        with pytest.raises(ValueError, match=r"^batch_size must be >= 1, got 0$"):
            report_of(samples_of([3]), capacity=4, batch_size=0)
        assert report_of([], capacity=4, batch_size=0).naive_pad_fraction == 0.0


class TestAttentionMetadata:
    def test_two_segments_with_padding(self):
        seq = PackedSequence(capacity=6, lengths=(("a", 3), ("b", 2)))
        cumulative, positions = build_attention_metadata(seq)
        assert positions == [0, 1, 2, 0, 1, PAD_POSITION]
        assert cumulative == [0, 3, 5]

    def test_full_sequence(self):
        seq = PackedSequence(capacity=4, lengths=(("a", 4),))
        cumulative, positions = build_attention_metadata(seq)
        assert positions == [0, 1, 2, 3]
        assert cumulative == [0, 4]
        assert cumulative[-1] == seq.capacity  # zero-pad tail ends at capacity

    def test_metadata_drives_block_attention(self):
        # Packed forward with the emitted boundaries matches the dense
        # reference run on each sample alone.
        rng = np.random.default_rng(2)
        lengths = [4, 2, 5]
        seqs = pack_ffd(samples_of(lengths), capacity=11)
        (seq,) = seqs
        cumulative, positions = build_attention_metadata(seq)
        used = seq.used_tokens
        params = AttentionParams.random(4, 4, rng)
        rope = RopeConfig(d_head=4)
        x = rng.normal(size=(used, 4))
        pos = np.array([[p, p] for p in positions[:used]])
        packed = PatchSequence(
            embeddings=x, positions=pos, sample_boundaries=tuple(cumulative)
        )
        out = block_diag_forward(packed, params, rope)
        for i in range(len(cumulative) - 1):
            lo, hi = cumulative[i], cumulative[i + 1]
            alone = _dense_block_attention(
                PatchSequence(
                    embeddings=x[lo:hi],
                    positions=pos[lo:hi],
                    sample_boundaries=(0, hi - lo),
                ),
                params,
                rope,
            )
            np.testing.assert_allclose(out[lo:hi], alone, atol=1e-6)


class TestPackingReport:
    def test_identical_lengths_proxy_one(self):
        report = report_of(samples_of([5] * 8), capacity=10, batch_size=4)
        assert report.useful_token_speedup_proxy == pytest.approx(1.0)
        assert report.packed_pad_fraction == 0.0
        assert report.naive_pad_fraction == 0.0

    def test_fixture_proxy_twenty_elevenths(self):
        report = report_of(samples_of([10, 1]), capacity=11, batch_size=2)
        assert report.n_sequences == 1
        assert report.packed_pad_fraction == 0.0
        assert report.useful_token_speedup_proxy == pytest.approx(20.0 / 11.0, abs=1e-9)

    def test_empty_manifest(self):
        report = report_of([], capacity=10, batch_size=2)
        assert report.n_samples == 0
        assert report.useful_token_speedup_proxy == 1.0

    def test_proxy_can_drop_below_one_on_tight_manifests(self):
        # Documented limitation: a manifest the naive baseline already
        # packs tightly, where fixed-capacity sequences waste more.
        report = report_of(samples_of([6, 5, 6, 5, 4, 4]), capacity=12, batch_size=2)
        assert report.useful_token_speedup_proxy < 1.0


class TestManifestParsing:
    def test_good_record(self):
        record = parse_manifest_line(
            '{"id": "a", "text_tokens": 5, "images": [{"width": 30, "height": 40}]}'
        )
        assert record.id == "a"
        assert record.text_tokens == 5
        assert record.images == (ImageSize(30, 40),)

    def test_images_optional(self):
        record = parse_manifest_line('{"id": "a", "text_tokens": 5}')
        assert record.images == ()

    @pytest.mark.parametrize(
        "line,needle",
        [
            ('{"id": "a", "text_tokens": 1, "bogus": 2}', "bogus"),
            ('{"id": "a", "text_tokens": 1, "images": [{"width": 1, "height": 1, "depth": 3}]}', "depth"),
            ('{"text_tokens": 1}', "id"),
            ('{"id": "a"}', "text_tokens"),
            ('{"id": "a", "text_tokens": -2}', "text_tokens"),
            ('{"id": "a", "text_tokens": 1, "images": [{"width": 0, "height": 5}]}', "width"),
            ("not json", "JSON"),
            ("[1, 2]", "object"),
        ],
    )
    def test_malformed_records_name_the_problem(self, line, needle):
        with pytest.raises(ManifestError, match=needle):
            parse_manifest_line(line)

    def test_sample_from_record_plans_images(self):
        budget = PixelBudget(min_pixels=64**2, max_pixels=160**2, patch_size=16)
        record = parse_manifest_line(
            '{"id": "a", "text_tokens": 3, "images": [{"width": 64, "height": 64}]}'
        )
        sample = sample_from_record(record, budget)
        expected = plan_resize(ImageSize(64, 64), budget).token_count
        assert sample.total_tokens == 3 + expected

    def test_zero_token_sample_rejected(self):
        record = parse_manifest_line('{"id": "a", "text_tokens": 0}')
        budget = PixelBudget(min_pixels=64**2, max_pixels=160**2, patch_size=16)
        with pytest.raises(ValueError, match="zero tokens"):
            sample_from_record(record, budget)


class TestPackedSequenceValidation:
    def test_lengths_beyond_capacity_rejected(self):
        with pytest.raises(ValueError, match="lengths 7 exceed capacity 6"):
            PackedSequence(capacity=6, lengths=(("a", 4), ("b", 3)))

    def test_long_id_is_cut(self):
        with pytest.raises(ValueError) as e:
            PackedSequence(capacity=6, lengths=(("x" * 10_000, 0),))
        assert str(e.value) == f"segment '{'x' * 60}... has invalid length 0"

    def test_derived_fields(self):
        seq = PackedSequence(capacity=9, lengths=(("a", 4), ("b", 3)))
        assert (seq.used_tokens, seq.pad_tokens) == (7, 2)
        assert seq.cumulative_lengths == (0, 4, 7)
        assert seq.segments == (("a", 0, 4), ("b", 4, 3))
        empty = PackedSequence(capacity=3, lengths=())
        assert (empty.pad_tokens, empty.cumulative_lengths, empty.segments) == (3, (0,), ())

    @given(st.data())
    def test_starts_are_sums_of_the_lengths_before(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=200))
        lengths = []
        for n in data.draw(st.lists(st.integers(min_value=1, max_value=capacity), max_size=20)):
            if sum(lengths) + n <= capacity:
                lengths.append(n)
        seq = PackedSequence(capacity, tuple((f"s{i}", n) for i, n in enumerate(lengths)))
        for i, (sid, start, length) in enumerate(seq.segments):
            assert (sid, start, length) == (f"s{i}", sum(lengths[:i]), lengths[i])
        assert seq.cumulative_lengths[-1] == seq.used_tokens
        triples, offset = [], 0
        for i, n in enumerate(lengths):
            triples.append([f"s{i}", offset, n])
            offset += n
        assert sequence_dict(seq) == {
            "capacity": capacity,
            "segments": triples,
            "pad_tokens": capacity - offset,
            "cumulative_lengths": [0, *(start + n for _, start, n in triples)],
        }
