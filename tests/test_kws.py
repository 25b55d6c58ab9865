import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farspot import kws
from farspot.kws import KeywordDetection, KeywordModel, KwsError
from farspot.netcore import Posteriorgram
from helpers import viterbi_oracle

KM = KeywordModel(keyword_units=(0, 1), silence=2, garbage=3, blank=4)


def _post(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return Posteriorgram(rows / rows.sum(axis=1, keepdims=True))


def _random_post(rng, t, peaked=0.6):
    rows = rng.uniform(0.01, 1.0, (t, 5))
    for ti in range(t):
        if rng.random() < peaked:
            rows[ti, rng.integers(5)] += rng.uniform(1.0, 5.0)
    return _post(rows)


class TestKeywordModel:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(KwsError):
            KeywordModel(keyword_units=(0, 1), silence=1, garbage=3, blank=4)

    # the decoder's graph holds exactly two keyword units
    @pytest.mark.parametrize("units", [(), (0,), (0, 1, 5)], ids=["empty", "one", "three"])
    def test_empty_units_rejected(self, units):
        with pytest.raises(KwsError):
            KeywordModel(keyword_units=units, silence=2, garbage=3, blank=4)


class TestViterbiLocate:
    def test_clean_keyword_segment(self):
        # sil sil hey hey hey blank cor cor cor sil: segment [2, 8]
        e = 0.02
        rows = []
        for lab in [2, 2, 0, 0, 0, 4, 1, 1, 1, 2]:
            r = np.full(5, e)
            r[lab] = 1.0 - 4 * e
            rows.append(r)
        assert kws.viterbi_locate(_post(rows), KM) == (2, 8)

    def test_back_to_back_units_without_blank(self):
        # distinct units may follow each other directly
        e = 0.02
        rows = []
        for lab in [2, 0, 1, 2]:
            r = np.full(5, e)
            r[lab] = 1.0 - 4 * e
            rows.append(r)
        assert kws.viterbi_locate(_post(rows), KM) == (1, 2)

    def test_all_silence_still_returns_a_segment(self):
        rows = np.tile([0.01, 0.01, 0.96, 0.01, 0.01], (6, 1))
        m, n = kws.viterbi_locate(_post(rows), KM)
        assert 0 <= m <= n < 6

    def test_tie_prefers_earliest_segment(self):
        # two identical keyword occurrences: the earlier one wins
        e = 0.02
        rows = []
        for lab in [2, 0, 1, 2, 2, 0, 1, 2]:
            r = np.full(5, e)
            r[lab] = 1.0 - 4 * e
            rows.append(r)
        assert kws.viterbi_locate(_post(rows), KM) == (1, 2)

    def test_minimum_length_input(self):
        # two frames is the shortest feasible path: U1 U2
        rows = np.array([[0.9, 0.025, 0.025, 0.025, 0.025],
                         [0.025, 0.9, 0.025, 0.025, 0.025]])
        assert kws.viterbi_locate(_post(rows), KM) == (0, 1)

    def test_empty_posteriorgram_rejected(self):
        with pytest.raises(KwsError):
            kws.viterbi_locate(Posteriorgram(np.zeros((0, 5))), KM)

    def test_one_frame_rejected(self):
        # the shortest keyword path, U1 U2, needs two frames
        with pytest.raises(KwsError, match="1 frames"):
            kws.viterbi_locate(_post(np.ones((1, 5))), KM)

    def test_too_few_labels_rejected(self):
        with pytest.raises(KwsError):
            kws.viterbi_locate(_post(np.ones((4, 3))), KM)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            t = int(rng.integers(2, 13))
            post = _random_post(rng, t)
            got = kws.viterbi_locate(post, KM)
            want = viterbi_oracle(post.rows, (0, 1), 2, 3, 4)
            assert got == want

    def test_matches_exhaustive_oracle_on_ties(self):
        # uniform rows tie every path; one-hot rows tie every path with the
        # same number of zero-posterior frames.  Both sum without rounding
        # error in the decoder (every path adds the same values), so the
        # (score, -m, -n) tie-break must match an oracle in exact arithmetic.
        rng = np.random.default_rng(1)
        for i in range(120):
            t = int(rng.integers(2, 10))
            if i % 2 == 0:
                rows = np.full((t, 5), 0.2)
            else:
                rows = np.eye(5)[rng.integers(0, 5, t)]
            got = kws.viterbi_locate(Posteriorgram(rows), KM)
            assert got == viterbi_oracle(rows, (0, 1), 2, 3, 4, exact=True)

    def test_segments_on_tenths_grid_are_pinned(self):
        # rows on a 0.1 grid tie or nearly tie many paths, and float sums
        # break those ties unlike any exact oracle: pin the segments of 3000
        # such posteriorgrams (T 2-40) by their sha256, so a DP that adds in
        # another order fails here.  The rows come from rng.integers alone,
        # whose stream numpy keeps across versions.
        rng = np.random.default_rng(33)
        segs = []
        for _ in range(3000):
            t = int(rng.integers(2, 41))
            cuts = np.sort(rng.integers(0, 11, (t, 4)), axis=1)
            tenths = np.diff(cuts, axis=1, prepend=0, append=10)
            segs.append(kws.viterbi_locate(Posteriorgram(tenths / 10), KM))
        assert hashlib.sha256(repr(segs).encode()).hexdigest() == (
            "85134514d1891d9c0f5ee8d898430b91a3347aa46aeb3443f708c7e57f500dee")

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_segment_is_valid_property(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 16))
        m, n = kws.viterbi_locate(_random_post(rng, t), KM)
        assert 0 <= m <= n < t
        assert n - m >= 1  # two distinct units need at least two frames


class TestConfidence:
    def test_perfect_posteriors_score_one(self):
        rows = np.zeros((4, 5))
        rows[:, 2] = 1.0
        rows[1] = [1.0, 0, 0, 0, 0]
        rows[2] = [0, 1.0, 0, 0, 0]
        det = kws.confidence_score(Posteriorgram(rows), (1, 2), KM)
        assert det.score == pytest.approx(1.0)
        assert det.peak_frames == (1, 2)

    def test_geometric_mean_example(self):
        # peaks 0.64 and 0.25 -> sqrt(0.16) = 0.4
        rows = np.array(
            [
                [0.64, 0.09, 0.09, 0.09, 0.09],
                [0.15, 0.25, 0.20, 0.20, 0.20],
            ]
        )
        det = kws.confidence_score(_post(rows), (0, 1), KM)
        # renormalization keeps these rows unchanged (they already sum to 1)
        assert det.score == pytest.approx(0.4, abs=1e-12)
        assert det.peak_posteriors == pytest.approx((0.64, 0.25), abs=1e-12)

    def test_peak_search_restricted_to_segment(self):
        rows = np.full((5, 5), 0.2)
        rows[0] = [0.9, 0.025, 0.025, 0.025, 0.025]  # outside the segment
        rows[2] = [0.5, 0.2, 0.1, 0.1, 0.1]
        rows[3] = [0.1, 0.5, 0.2, 0.1, 0.1]
        det = kws.confidence_score(_post(rows), (2, 3), KM)
        assert det.peak_frames == (2, 3)

    def test_changing_rows_outside_segment_leaves_score_alone(self):
        rng = np.random.default_rng(1)
        post = _random_post(rng, 10)
        det = kws.confidence_score(post, (3, 6), KM)
        rows = post.rows.copy()
        rows[0] = rows[9] = [0.2, 0.2, 0.2, 0.2, 0.2]
        det2 = kws.confidence_score(Posteriorgram(rows), (3, 6), KM)
        assert det2.score == det.score

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_score_bounded_by_peaks(self, seed):
        rng = np.random.default_rng(seed)
        post = _random_post(rng, 8)
        det = kws.confidence_score(post, (1, 6), KM)
        assert 0.0 <= det.score <= 1.0
        assert min(det.peak_posteriors) - 1e-12 <= det.score <= max(det.peak_posteriors) + 1e-12

    def test_invalid_segment_rejected(self):
        post = _post(np.ones((4, 5)))
        with pytest.raises(KwsError):
            kws.confidence_score(post, (2, 4), KM)
        with pytest.raises(KwsError):
            kws.confidence_score(post, (3, 2), KM)


class TestDecide:
    def test_threshold_boundary_accepts_on_equality(self):
        det = KeywordDetection(score=0.5, segment=(0, 1), peak_frames=(0, 1),
                               peak_posteriors=(0.5, 0.5))
        assert kws.decide(det, 0.5)
        assert not kws.decide(det, 0.5 + 1e-9)
        assert kws.decide(det, 0.0)

    def test_bad_threshold_rejected(self):
        det = KeywordDetection(score=0.5, segment=(0, 1), peak_frames=(0,),
                               peak_posteriors=(0.5,))
        with pytest.raises(KwsError, match="got 1.5"):
            kws.decide(det, 1.5)
        with pytest.raises(KwsError, match="got nan"):
            kws.decide(det, float("nan"))


class TestEvaluate:
    def test_counts_by_hand(self):
        # 8700 positives of which 8352 accepted -> CA 96%; no false accepts
        scores = [(0.9, True)] * 8352 + [(0.1, True)] * 348 + [(0.1, False)] * 23300
        report = kws.evaluate(scores, 0.5)
        assert report.ca == pytest.approx(8352 / 8700)
        assert report.fa == 0.0
        assert report.accepted_positives == 8352
        assert report.total_negatives == 23300

    def test_fa_per_hour(self):
        scores = [(0.9, True), (0.9, False), (0.1, False)]
        durations = [10.0, 0.5, 0.5]  # hours
        report = kws.evaluate(scores, 0.5, durations_hours=durations)
        assert report.fa_per_hour == pytest.approx(1.0)

    def test_needs_both_classes(self):
        with pytest.raises(KwsError):
            kws.evaluate([(0.5, True)], 0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        scores = [(float(rng.random()), bool(rng.integers(2))) for _ in range(500)]
        cas, fas = [], []
        for th in np.linspace(0, 1, 11):
            r = kws.evaluate(scores, float(th))
            cas.append(r.ca)
            fas.append(r.fa)
        assert all(b <= a for a, b in zip(cas, cas[1:]))
        assert all(b <= a for a, b in zip(fas, fas[1:]))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(KwsError, match="threshold must be finite"):
            kws.evaluate([(0.5, True), (0.5, False)], threshold)

    def test_roc_equals_quadratic_reference(self):
        # scores on a 0.05 grid tie within and across the two classes
        rng = np.random.default_rng(3)
        scores = [(float(rng.integers(0, 21)) / 20, bool(rng.integers(2))) for _ in range(300)]
        scores += [(0.0, True), (1.0, False)]
        pos = [s for s, p in scores if p]
        neg = [s for s, p in scores if not p]
        want = [(th, sum(s >= th for s in pos) / len(pos), sum(s >= th for s in neg) / len(neg))
                for th in sorted({s for s, _ in scores} | {0.0, 1.0})]
        assert kws.evaluate(scores, 0.5, with_roc=True).roc == want


class TestThresholdAtCa:
    def test_exact_quantile(self):
        # 10 positives, target 0.96 -> k = ceil(9.6) = 10, threshold = lowest
        scores = [(s, True) for s in np.linspace(0.1, 1.0, 10)]
        th = kws.threshold_at_ca(scores, 0.96)
        assert th == pytest.approx(0.1)

    def test_achieves_target_and_is_maximal(self):
        rng = np.random.default_rng(3)
        scores = [(float(rng.random()), True) for _ in range(500)]
        scores += [(float(rng.random()), False) for _ in range(500)]
        th = kws.threshold_at_ca(scores, 0.96)
        assert kws.evaluate(scores, th).ca >= 0.96
        # any strictly larger threshold that excludes the k-th score drops CA
        bigger = th + 1e-9
        assert kws.evaluate(scores, bigger).ca < 0.96

    def test_iid_scores_give_matching_fa(self):
        # positives and negatives drawn from the same distribution: FA at the
        # 96%-CA threshold concentrates around 0.96
        rng = np.random.default_rng(4)
        scores = [(float(rng.random()), True) for _ in range(10_000)]
        scores += [(float(rng.random()), False) for _ in range(10_000)]
        th = kws.threshold_at_ca(scores, 0.96)
        report = kws.evaluate(scores, th)
        assert report.fa == pytest.approx(0.96, abs=0.02)

    def test_no_positives_rejected(self):
        with pytest.raises(KwsError):
            kws.threshold_at_ca([(0.5, False)], 0.96)

    @pytest.mark.parametrize("target_ca", [1.5, 0.0, -0.1, float("nan"), float("inf")])
    def test_target_outside_unit_interval_rejected(self, target_ca):
        with pytest.raises(KwsError, match=r"target CA must be in \(0, 1\]"):
            kws.threshold_at_ca([(0.5, True), (0.2, True)], target_ca)

    def test_target_of_one_accepts_every_positive(self):
        assert kws.threshold_at_ca([(0.5, True), (0.2, True), (0.9, False)], 1.0) == 0.2


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        records = [
            ("utt0", 0.91234567, True, 2.345),
            ("utt1", 0.125, False, None),
        ]
        p = tmp_path / "dev.scores"
        kws.write_scores(p, records)
        back = kws.read_scores(p)
        assert back[0][0] == "utt0"
        assert back[0][1] == pytest.approx(0.91234567, abs=1e-8)
        assert back[0][2] is True
        assert back[0][3] == pytest.approx(2.345)
        assert back[1][3] is None

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.scores"
        p.write_text("utt0\t0.5\n")
        with pytest.raises(KwsError):
            kws.read_scores(p)

    @pytest.mark.parametrize("fields", [
        ("0.x", "1", "-"), ("nan", "1", "-"), ("inf", "0", "-"), ("0.5", "yes", "-"),
        ("0.5", "2", "-"), ("0.5", "1", "1s"), ("0.5", "1", "nan"),
    ], ids="/".join)
    def test_bad_field_rejected_with_line_number(self, tmp_path, fields):
        p = tmp_path / "bad.scores"
        p.write_text("u0\t0.5\t1\t-\nu1\t" + "\t".join(fields) + "\n")
        with pytest.raises(KwsError, match="bad.scores:2"):
            kws.read_scores(p)

    # eval used to drop its FA-per-hour line on such a file and exit 0
    def test_negative_duration_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "bad.scores"
        p.write_text("u0\t0.5\t1\t0.000\nu1\t0.5\t0\t-2.000\n")
        with pytest.raises(KwsError, match="bad.scores:2: negative duration -2.000"):
            kws.read_scores(p)
