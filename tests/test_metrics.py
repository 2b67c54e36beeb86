"""Metric and significance-test checks against independent oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import hiercomment.metrics as MT
from hiercomment.features import CommentStats, fit_specificity_bins


# ----------------------------------------------------------- oracles

def oracle_bleu4(ref, hyp):
    """Fraction-arithmetic reimplementation of sentence BLEU-4."""
    if not hyp:
        return 0.0
    precisions = []
    for n in range(1, 5):
        hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        matched = 0
        remaining = list(ref_grams)
        for g in hyp_grams:
            if g in remaining:
                remaining.remove(g)
                matched += 1
        if n == 1:
            if matched == 0:
                return 0.0
            precisions.append(Fraction(matched, len(hyp_grams)))
        else:
            precisions.append(Fraction(matched + 1, len(hyp_grams) + 1))
    geo = math.exp(sum(0.25 * math.log(float(p)) for p in precisions))
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
    return bp * geo


def _is_subseq(sub, seq):
    it = iter(seq)
    return all(any(tok == s for s in it) for tok in sub)


def oracle_lcs(a, b):
    """Longest common subsequence by subsequence enumeration."""
    shorter, other = (a, b) if len(a) <= len(b) else (b, a)
    for k in range(len(shorter), 0, -1):
        for combo in itertools.combinations(shorter, k):
            if _is_subseq(combo, other):
                return k
    return 0


def oracle_rouge_l(ref, hyp, beta=1.2):
    if not ref or not hyp:
        return 0.0
    lcs = oracle_lcs(ref, hyp)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return (1 + beta ** 2) * p * r / (r + beta ** 2 * p)


def oracle_meteor_alignment(hyp, ref):
    """Exhaustive best alignment for short inputs.

    Enumerates every injective compat mapping and picks the
    lexicographic best: most total matches, most exact matches, fewest
    chunks.  Only usable for len(hyp) <= 6.
    """
    hyp_stems = [MT.stem(t) for t in hyp]
    ref_stems = [MT.stem(t) for t in ref]
    best = (-1, -1, math.inf)
    options = [[None] + [j for j in range(len(ref)) if ref_stems[j] == hyp_stems[i]]
               for i in range(len(hyp))]
    for choice in itertools.product(*options):
        taken = [j for j in choice if j is not None]
        if len(set(taken)) != len(taken):
            continue
        pairs = [(i, j) for i, j in enumerate(choice) if j is not None]
        total = len(pairs)
        exact = sum(1 for i, j in pairs if hyp[i] == ref[j])
        chunks = MT._count_chunks(pairs)
        key = (total, exact, -chunks)
        if key > (best[0], best[1], -best[2]):
            best = (total, exact, chunks)
    total, _, chunks = best
    return (max(total, 0), 0 if total <= 0 else chunks)


def oracle_meteor(ref, hyp):
    if not ref or not hyp:
        return 0.0
    m, chunks = oracle_meteor_alignment(hyp, ref)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    fmean = 10 * p * r / (r + 9 * p)
    return fmean * (1 - 0.5 * (chunks / m) ** 3)


WORDS = ["returns", "return", "the", "value", "values", "cached", "cache",
         "a", "b", "of", "list", "encoded", "encoding"]


def random_token_lists(seed, n_pairs, max_len):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_pairs):
        la = int(rng.integers(0, max_len + 1))
        lb = int(rng.integers(1, max_len + 1))
        a = [WORDS[i] for i in rng.integers(0, len(WORDS), size=la)]
        b = [WORDS[i] for i in rng.integers(0, len(WORDS), size=lb)]
        out.append((a, b))
    return out


# ------------------------------------------------------------- BLEU-4

class TestBleu4:
    def test_identical_sentence_scores_one(self):
        toks = "returns the cached value of the list".split()
        assert MT.bleu4(toks, toks) == pytest.approx(1.0, abs=1e-12)

    def test_short_prefix_hand_value(self):
        # p1 = 1, smoothed p2..p4 = 1, BP = exp(1 - 3/2)
        ref = "the cat sat".split()
        hyp = "the cat".split()
        assert MT.bleu4(ref, hyp) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_empty_hypothesis_scores_zero(self):
        assert MT.bleu4(["a", "b"], []) == 0.0

    def test_no_unigram_overlap_scores_zero(self):
        assert MT.bleu4("a b c".split(), "x y z".split()) == 0.0

    def test_word_order_matters(self):
        ref = "a b c d".split()
        assert MT.bleu4(ref, ref) > MT.bleu4(ref, list(reversed(ref)))

    def test_brevity_penalty_only_when_shorter(self):
        ref = "a b".split()
        hyp = "a b c c".split()  # longer than ref, no BP
        oracle = oracle_bleu4(ref, hyp)
        assert MT.bleu4(ref, hyp) == pytest.approx(oracle, abs=1e-9)

    def test_clipping_limits_repeated_tokens(self):
        ref = "the cat".split()
        hyp = "the the the the".split()
        # clipped unigram matches = 1 of 4
        assert MT.bleu4(ref, hyp) == pytest.approx(oracle_bleu4(ref, hyp), abs=1e-9)
        assert MT.bleu4(ref, hyp) < 0.5

    def test_matches_oracle_on_random_pairs(self):
        for ref, hyp in random_token_lists(seed=11, n_pairs=60, max_len=9):
            if not ref:
                continue
            assert MT.bleu4(ref, hyp) == pytest.approx(
                oracle_bleu4(ref, hyp), abs=1e-9), (ref, hyp)

    def test_scores_stay_in_unit_interval(self):
        for ref, hyp in random_token_lists(seed=12, n_pairs=40, max_len=7):
            if not ref:
                continue
            assert 0.0 <= MT.bleu4(ref, hyp) <= 1.0 + 1e-12


# ------------------------------------------------------------ ROUGE-L

class TestRougeL:
    def test_identical_sentence_scores_one(self):
        toks = "returns the cached value".split()
        assert MT.rouge_l(toks, toks) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_with_recall_weighting(self):
        ref = "a b c d".split()
        hyp = "a c d".split()
        # P = 1, R = 3/4, beta^2 = 1.44
        expect = (1 + 1.44) * 1.0 * 0.75 / (0.75 + 1.44 * 1.0)
        assert MT.rouge_l(ref, hyp) == pytest.approx(expect, abs=1e-12)

    def test_empty_sides_score_zero(self):
        assert MT.rouge_l([], ["a"]) == 0.0
        assert MT.rouge_l(["a"], []) == 0.0

    def test_disjoint_tokens_score_zero(self):
        assert MT.rouge_l("a b".split(), "x y".split()) == 0.0

    def test_matches_oracle_on_random_pairs(self):
        for ref, hyp in random_token_lists(seed=21, n_pairs=50, max_len=7):
            assert MT.rouge_l(ref, hyp) == pytest.approx(
                oracle_rouge_l(ref, hyp), abs=1e-9), (ref, hyp)

    def test_subsequence_not_substring(self):
        # gaps are fine for LCS
        ref = "a x b y c".split()
        hyp = "a b c".split()
        assert MT.rouge_l(ref, hyp) > 0.9 * (1 + 1.44) * 1.0 * 0.6 / (0.6 + 1.44)


# ------------------------------------------------------------- METEOR

class TestStem:
    @pytest.mark.parametrize("token,expect", [
        ("returns", "return"),
        ("encoded", "encod"),
        ("encoding", "encod"),
        ("values", "value"),
        ("classes", "class"),
        ("copies", "copi"),
        ("quickly", "quick"),
        ("is", "is"),
        ("this", "this"),
        ("class", "class"),
        ("bus", "bus"),
        ("the", "the"),
    ])
    def test_suffix_rules(self, token, expect):
        assert MT.stem(token) == expect


class TestMeteor:
    def test_identity_penalty_formula(self):
        toks = "returns the cached value".split()
        m = len(toks)
        assert MT.meteor(toks, toks) == pytest.approx(1 - 0.5 / m ** 3, abs=1e-12)

    def test_two_chunk_hand_value(self):
        ref = "the cat sat on the mat".split()
        hyp = "the cat the mat".split()
        # m = 4, P = 1, R = 2/3, Fmean = 20/29, chunks = 2
        expect = (20 / 29) * (1 - 0.5 * (2 / 4) ** 3)
        assert MT.meteor(ref, hyp) == pytest.approx(expect, abs=1e-12)

    def test_stem_stage_recovers_inflection(self):
        ref = "returns the encoded value".split()
        hyp = "returns the encoding value".split()
        score = MT.meteor(ref, hyp)
        assert score == pytest.approx(1 - 0.5 / 4 ** 3, abs=1e-12)

    def test_no_match_scores_zero(self):
        assert MT.meteor("a b".split(), "x y".split()) == 0.0

    def test_empty_sides_score_zero(self):
        assert MT.meteor([], ["a"]) == 0.0
        assert MT.meteor(["a"], []) == 0.0

    def test_chunks_are_minimized_over_duplicate_choices(self):
        # naive first-free assignment of the duplicate "a" gives 3 chunks
        hyp = "a a b".split()
        ref = "a b a".split()
        m, chunks = MT._align(hyp, ref)
        assert m == 3
        assert chunks == 2

    def test_matches_exhaustive_oracle_on_random_pairs(self):
        for ref, hyp in random_token_lists(seed=31, n_pairs=80, max_len=6):
            assert MT.meteor(ref, hyp) == pytest.approx(
                oracle_meteor(ref, hyp), abs=1e-9), (ref, hyp)

    def test_fragmented_worse_than_contiguous(self):
        ref = "a b c d e f".split()
        contiguous = "a b c".split()
        scattered = "a c e".split()
        assert MT.meteor(ref, contiguous) > MT.meteor(ref, scattered)

    def test_scores_stay_in_unit_interval(self):
        for ref, hyp in random_token_lists(seed=32, n_pairs=50, max_len=6):
            assert 0.0 <= MT.meteor(ref, hyp) <= 1.0 + 1e-12


# ------------------------------------------------------ corpus report

class TestScoreCorpus:
    def test_means_and_per_example_entries(self):
        ref1, hyp1 = "a b c d".split(), "a b c d".split()
        ref2, hyp2 = "a b c d".split(), "x y".split()
        report = MT.score_corpus([("e1", ref1, hyp1), ("e2", ref2, hyp2)])
        assert report.n == 2
        assert report.bleu4 == pytest.approx(
            (MT.bleu4(ref1, hyp1) + MT.bleu4(ref2, hyp2)) / 2, abs=1e-12)
        assert [e["id"] for e in report.per_example] == ["e1", "e2"]
        d = report.to_dict()
        assert set(d) == {"n", "bleu4", "meteor", "rouge_l", "per_example"}

    def test_empty_corpus_reports_zeros(self):
        report = MT.score_corpus([])
        assert report.n == 0
        assert report.bleu4 == 0.0


# ----------------------------------------------------------- bootstrap

def exact_bootstrap_p(a, b):
    """Exact expectation over all index resamples (tiny inputs only)."""
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    total = 0.0
    count = 0
    for combo in itertools.product(range(n), repeat=n):
        m = sum(d[i] for i in combo) / n
        if m < 0:
            total += 1.0
        elif m == 0:
            total += 0.5
        count += 1
    return total / count


class TestBootstrap:
    def test_matches_exact_enumeration(self):
        a = [1.0, 0.2, 0.4]
        b = [0.8, 0.3, 0.1]
        expect = exact_bootstrap_p(a, b)
        got = MT.bootstrap_test(a, b, n=200000, seed=1)
        assert got.p_value == pytest.approx(expect, abs=0.01)

    def test_identical_scores_give_half(self):
        a = [0.3, 0.5, 0.7, 0.2]
        res = MT.bootstrap_test(a, list(a), n=5000, seed=0)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)

    def test_uniform_dominance_gives_zero(self):
        a = [x + 1.0 for x in (0.1, 0.2, 0.3)]
        b = [0.1, 0.2, 0.3]
        assert MT.bootstrap_test(a, b, n=2000, seed=0).p_value == 0.0

    def test_raising_a_never_raises_p(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 1.0, size=30)
        b = rng.normal(0.1, 1.0, size=30)
        p_low = MT.bootstrap_test(a, b, n=4000, seed=7).p_value
        p_high = MT.bootstrap_test(a + 0.5, b, n=4000, seed=7).p_value
        assert p_high <= p_low

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 181])
    @pytest.mark.parametrize("resamples", [1, 499, 500, 1001, 1733])
    def test_blocked_means_equal_one_draw(self, size, resamples):
        values = np.random.default_rng(size).normal(size=size)
        got = MT._resample_means(values, resamples, np.random.default_rng(4))
        idx = np.random.default_rng(4).integers(0, size, size=(resamples, size))
        assert np.array_equal(got, values[idx].mean(axis=1))

    def test_seed_determinism(self):
        a = [0.4, 0.6, 0.5, 0.9]
        b = [0.5, 0.4, 0.45, 0.8]
        r1 = MT.bootstrap_test(a, b, n=3000, seed=3)
        r2 = MT.bootstrap_test(a, b, n=3000, seed=3)
        assert r1.p_value == r2.p_value

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MT.bootstrap_test([0.1, 0.2], [0.3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MT.bootstrap_test([], [])

    @pytest.mark.parametrize("n", [0, -5])
    def test_no_resamples_rejected(self, n):
        with pytest.raises(ValueError, match="at least one resample"):
            MT.bootstrap_test([0.1, 0.2], [0.3, 0.1], n=n)

    def test_result_records_parameters(self):
        res = MT.bootstrap_test([1.0, 2.0], [0.5, 1.0], n=100, seed=9)
        assert res.n_resamples == 100
        assert res.seed == 9
        assert res.statistic == pytest.approx(0.75)
        assert res.test_name == "paired-bootstrap"


# ------------------------------------------------------------ Wilcoxon

class TestWilcoxon:
    def test_hand_ranked_fixture(self):
        # diffs -2, -1, 3..10: ranks of |d| are 2, 1, 3..10
        # W+ = 3+4+...+10 = 52, mean = 27.5, var = 96.25
        x = [0.0] * 10
        y = [2.0, 1.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0, -9.0, -10.0]
        res = MT.wilcoxon_signed_rank(x, y)
        assert res.statistic == pytest.approx(52.0)
        z = (52 - 27.5) / math.sqrt(96.25)
        expect = 2 * 0.5 * math.erfc(z / math.sqrt(2))
        assert res.p_value == pytest.approx(expect, abs=1e-12)

    def test_matches_scipy_normal_approximation(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(17)
        for _ in range(8):
            x = rng.normal(0.2, 1.0, size=25)
            y = rng.normal(0.0, 1.0, size=25)
            ours = MT.wilcoxon_signed_rank(x, y)
            ref = scipy_stats.wilcoxon(x, y, mode="approx", correction=False)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_matches_scipy_with_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.5, 8.0])
        y = np.array([0.0, 1.0, 1.0, 2.0, 7.0, 4.0, 5.0, 6.0])
        ours = MT.wilcoxon_signed_rank(x, y)
        ref = scipy_stats.wilcoxon(x, y, mode="approx", correction=False)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_zero_differences_dropped(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [1.0, 2.0, 1.0, 2.0, 3.0, 2.0]
        res_full = MT.wilcoxon_signed_rank(x, y)
        res_trim = MT.wilcoxon_signed_rank(x[2:], y[2:])
        assert res_full.p_value == pytest.approx(res_trim.p_value, abs=1e-12)

    def test_all_zero_differences_give_one(self):
        res = MT.wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert res.p_value == 1.0
        assert res.statistic == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(23)
        x = rng.normal(0.5, 1.0, size=20)
        y = rng.normal(0.0, 1.0, size=20)
        assert MT.wilcoxon_signed_rank(x, y).p_value == pytest.approx(
            MT.wilcoxon_signed_rank(y, x).p_value, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MT.wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_strong_shift_is_significant(self):
        x = list(np.linspace(1.0, 2.0, 30))
        y = [v - 0.5 for v in x]
        assert MT.wilcoxon_signed_rank(x, y).p_value < 0.01


# --------------------------------------------------------- NIWF report

def _specificity_fixture():
    # doc frequencies fall with the token index, giving spread-out
    # rarity so quantile bins have distinct edges
    comments = [["tok%d" % j for j in range(i + 1)] for i in range(10)]
    stats = CommentStats.fit(comments)
    bins = fit_specificity_bins(comments, stats, k=5)
    return comments, stats, bins


class TestNiwfReport:
    def test_rare_side_scores_higher(self):
        comments, stats, bins = _specificity_fixture()
        # sub comments end with rare tokens, sup comments with common ones
        pairs = [(comments[i], comments[0]) for i in range(3, 10)]
        report = MT.niwf_report(pairs, stats, bins)
        assert report["n"] == 7
        assert report["mean_sub"] > report["mean_sup"]
        assert report["wilcoxon_p"] < 0.05

    def test_single_pair_rejected(self):
        comments, stats, bins = _specificity_fixture()
        with pytest.raises(ValueError, match="insufficient pairs"):
            MT.niwf_report([(comments[1], comments[0])], stats, bins)

    def test_empty_comment_rejected(self):
        comments, stats, bins = _specificity_fixture()
        with pytest.raises(ValueError, match="empty comment"):
            MT.niwf_report([(comments[1], []), (comments[2], comments[0])],
                           stats, bins)
