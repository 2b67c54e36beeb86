import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiercomment import features as F
from hiercomment.features import (
    CommentStats,
    EditLabel,
    FeatureArtifacts,
    QuantileBins,
    StaticEmbeddingTable,
    coherence,
    combine_coherence_levels,
    comment_token_features,
    diff_labels,
    fit_coherence_bins,
    fit_specificity_bins,
    java_token_class,
    lcs_pairs,
    niwf_raw,
    pos_tag,
    sentence_repr,
    train_static_embeddings,
)


def brute_force_lcs_len(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return r
    return best


class TestLcs:
    def test_matches_brute_force_on_random_short_sequences(self):
        rng = random.Random(7)
        for _ in range(200):
            a = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            b = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            pairs = lcs_pairs(a, b)
            assert len(pairs) == brute_force_lcs_len(a, b)

    def test_pairs_are_increasing_and_matching(self):
        a = list("abacbdab")
        b = list("bdcaba")
        pairs = lcs_pairs(a, b)
        for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
            assert i1 < i2 and j1 < j2
        for i, j in pairs:
            assert a[i] == b[j]

    def test_empty_sequences(self):
        assert lcs_pairs([], ["a"]) == []
        assert lcs_pairs(["a"], []) == []


class TestDiffLabels:
    def test_replace_run_between_shared_anchors(self):
        sub = "returns the info access syntax".split()
        sup = "returns the value".split()
        labels = diff_labels(sub, sup)
        assert labels == [EditLabel.RETAIN, EditLabel.RETAIN,
                          EditLabel.REPLACE, EditLabel.REPLACE, EditLabel.REPLACE]

    def test_pure_insertion_is_add(self):
        sub = "returns the encoded value".split()
        sup = "returns the value".split()
        labels = diff_labels(sub, sup)
        assert labels == [EditLabel.RETAIN, EditLabel.RETAIN,
                          EditLabel.ADD, EditLabel.RETAIN]

    def test_deletion_never_labels_a_sub_token(self):
        sub = "returns value".split()
        sup = "returns the value".split()
        labels = diff_labels(sub, sup)
        assert EditLabel.DELETE not in labels
        assert labels == [EditLabel.RETAIN, EditLabel.RETAIN]

    def test_all_add_when_nothing_shared(self):
        assert diff_labels(["x", "y"], ["a", "b"]) == [EditLabel.REPLACE, EditLabel.REPLACE]
        assert diff_labels(["x", "y"], []) == [EditLabel.ADD, EditLabel.ADD]

    def test_trailing_gap_handled(self):
        sub = "a b extra".split()
        sup = "a b gone".split()
        labels = diff_labels(sub, sup)
        assert labels == [EditLabel.RETAIN, EditLabel.RETAIN, EditLabel.REPLACE]


class TestTokenClasses:
    def test_keyword_count_is_java_reserved_word_count(self):
        assert len(F.JAVA_KEYWORDS) == 50

    def test_keyword_and_operator_flags(self):
        assert java_token_class("return") == (True, False)
        assert java_token_class(";") == (False, True)
        assert java_token_class("value") == (False, False)

    def test_stop_word_list_size(self):
        assert 120 <= len(F.STOP_WORDS) <= 180
        assert "the" in F.STOP_WORDS
        assert "syntax" not in F.STOP_WORDS


class TestPosTagger:
    @pytest.mark.parametrize("token,tag", [
        ("returns", "VERB"),
        ("return", "VERB"),
        ("the", "DET"),
        (".", "PUNCT"),
        ("2", "NUM"),
        ("quickly", "ADV"),
        ("encoded", "VERB"),
        ("readable", "ADJ"),
        ("of", "PREP"),
        ("it", "PRON"),
        ("and", "OTHER"),
        ("syntax", "NOUN"),
    ])
    def test_fixtures(self, token, tag):
        assert pos_tag(token) == tag

    def test_every_tag_reachable(self):
        seen = {pos_tag(t) for t in
                ["syntax", "returns", "readable", "quickly", "the",
                 "of", "it", "42", ".", "and"]}
        assert seen == set(F.POS_TAGS)

    def test_comment_token_features(self):
        toks = "returns the encoded form of the object .".split()
        feats = comment_token_features(toks)
        assert feats[1] == (True, True, "DET")
        assert feats[0] == (False, False, "VERB")
        assert feats[-1] == (False, False, "PUNCT")


class TestStreamMatrices:
    def test_method_stream_shape_and_content(self):
        sub = ["return", "parsed", "value", ";"]
        sup = ["return", "raw", "value", ";"]
        mat = F.method_stream_features(sub, sup, ["info", "access"], ["value"],
                                       ["returns", "the", "value"])
        assert mat.shape == (4, F.RAW_FEATURE_DIMS["method"])
        assert mat[0, 0] == 1.0 and mat[0, 1] == 0.0
        assert mat[3, 1] == 1.0
        assert mat[1, 2 + EditLabel.REPLACE] == 1.0
        assert mat[0, 2 + EditLabel.RETAIN] == 1.0
        assert mat[2, 7] == 1.0
        assert mat[2, 8] == 1.0
        assert list(mat[0, 9:12]) == [1.0, 0.0, 0.0]

    def test_class_name_stream_shape(self):
        mat = F.class_name_stream_features(["info", "access", "syntax"],
                                           ["value"], ["info"])
        assert mat.shape == (3, F.RAW_FEATURE_DIMS["class_name"])
        assert mat[0, EditLabel.REPLACE] == 1.0
        assert mat[0, 4] == 1.0
        assert list(mat[0, 5:8]) == [0.0, 1.0, 0.0]

    def test_sup_comment_stream_shape(self):
        toks = ["returns", "the", "value", "."]
        mat = F.sup_comment_stream_features(toks, ["value"], ["return"])
        assert mat.shape == (4, F.RAW_FEATURE_DIMS["sup_comment"])
        assert mat[2, 0] == 1.0
        assert mat[1, 3] == 1.0
        verb_col = 4 + F.POS_TAGS.index("VERB")
        assert mat[0, verb_col] == 1.0
        assert list(mat[0, 14:17]) == [0.0, 0.0, 1.0]

    def test_empty_stream_keeps_width(self):
        mat = F.method_stream_features([], [], [], [], [])
        assert mat.shape == (0, F.RAW_FEATURE_DIMS["method"])


class TestCommentStats:
    def test_document_frequencies_ignore_within_comment_repeats(self):
        stats = CommentStats.fit([["a", "b", "b"], ["b", "c"], ["b"]])
        assert stats.n_comments == 3
        assert stats.doc_freq == {"a": 1, "b": 3, "c": 1}

    def test_iwf_values(self):
        stats = CommentStats.fit([["a", "b"], ["b", "c"], ["b"]])
        assert stats.iwf("b") == pytest.approx(math.log(4) / 4)
        assert stats.iwf("a") == pytest.approx(math.log(4) / 2)
        assert stats.iwf("zzz") == pytest.approx(math.log(4) / 1)

    def test_niwf_is_max_over_tokens(self):
        stats = CommentStats.fit([["a", "b"], ["b", "c"], ["b"]])
        assert niwf_raw(["a", "b"], stats) == pytest.approx(math.log(4) / 2)
        assert niwf_raw(["b"], stats) == pytest.approx(math.log(4) / 4)

    def test_empty_comment_rejected(self):
        stats = CommentStats.fit([["a"]])
        with pytest.raises(ValueError, match="empty comment"):
            niwf_raw([], stats)


class TestQuantileBins:
    def test_uniform_sample_levels_within_one_of_equal(self):
        vals = [float(i) for i in range(100)]
        bins = QuantileBins.fit(vals, k=5)
        counts = Counter(bins.level(v) for v in vals)
        assert set(counts) == {1, 2, 3, 4, 5}
        for lvl in counts:
            assert abs(counts[lvl] - 20) <= 1

    def test_exact_bucket_sizes_on_hundred_points(self):
        vals = [float(i) for i in range(100)]
        bins = QuantileBins.fit(vals, k=5)
        counts = Counter(bins.level(v) for v in vals)
        assert [counts[k] for k in range(1, 6)] == [21, 20, 20, 20, 19]

    def test_normalize_clamps(self):
        bins = QuantileBins.fit([0.0, 1.0, 2.0, 3.0, 4.0], k=5)
        assert bins.normalize(-10.0) == 0.0
        assert bins.normalize(99.0) == 1.0
        assert bins.normalize(2.0) == pytest.approx(0.5)

    def test_extremes_map_to_first_and_last_level(self):
        vals = [float(i) for i in range(50)]
        bins = QuantileBins.fit(vals, k=5)
        assert bins.level(0.0) == 1
        assert bins.level(49.0) == 5
        assert bins.level(-5.0) == 1
        assert bins.level(500.0) == 5

    def test_too_few_distinct_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            QuantileBins.fit([1.0, 1.0, 2.0, 2.0, 3.0], k=5)

    def test_specificity_bins_from_comments(self):
        rng = random.Random(3)
        vocab = ["tok%d" % i for i in range(40)]
        comments = [[rng.choice(vocab) for _ in range(5)] for _ in range(60)]
        stats = CommentStats.fit(comments)
        bins = fit_specificity_bins(comments, stats, k=5)
        lvls = {bins.level(niwf_raw(c, stats)) for c in comments}
        assert lvls <= {1, 2, 3, 4, 5}
        assert len(lvls) >= 3
        norm = bins.normalize(niwf_raw(comments[0], stats))
        assert 0.0 <= norm <= 1.0


def vector(emb, token):
    """A token's row of the table; zeros for a token it does not hold."""
    if token not in emb.tokens:
        return np.zeros(emb.dim)
    return emb.matrix[emb.tokens.index(token)]


class TestStaticEmbeddings:
    def make_corpus(self):
        seqs = [["alpha", "beta"] for _ in range(20)]
        seqs += [["gamma", "delta"] for _ in range(20)]
        seqs += [["solo"] for _ in range(5)]
        return seqs

    def test_cooccurring_pair_has_high_cosine(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        a, b = vector(emb, "alpha"), vector(emb, "beta")
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos >= 0.9

    def test_isolated_token_gets_zero_vector(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        assert np.array_equal(vector(emb, "solo"), np.zeros(emb.dim))

    def test_oov_token_gets_zero_vector(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        assert np.array_equal(vector(emb, "missing"), np.zeros(emb.dim))

    def test_dim_shrinks_to_vocab_size(self):
        emb = train_static_embeddings([["x", "y"]], dim=64, seed=0)
        assert emb.dim == 2

    def test_deterministic(self):
        e1 = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        e2 = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        assert e1.tokens == e2.tokens
        assert np.array_equal(e1.matrix, e2.matrix)

    def test_unrelated_pairs_less_similar_than_related(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        def cos(x, y):
            vx, vy = vector(emb, x), vector(emb, y)
            return vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy) + 1e-12)
        assert cos("alpha", "beta") > cos("alpha", "gamma") + 0.5

    def test_empty_corpus(self):
        emb = train_static_embeddings([], dim=8)
        assert emb.tokens == []


def reference_ppmi(token_seqs, window=5, max_vocab=5000):
    """The dense builder: counts filled pair by pair in an n x n matrix and
    PPMI computed over every cell. Returns (tokens, ppmi, marginals)."""
    freq = Counter()
    for seq in token_seqs:
        freq.update(seq)
    tokens = sorted(freq, key=lambda t: (-freq[t], t))[:max_vocab]
    tokens.sort()
    index = {t: i for i, t in enumerate(tokens)}
    n = len(tokens)
    counts = np.zeros((n, n), dtype=np.float64)
    for seq in token_seqs:
        ids = [index.get(t, -1) for t in seq]
        for i, ti in enumerate(ids):
            if ti < 0:
                continue
            for j in range(i + 1, min(i + 1 + window, len(ids))):
                tj = ids[j]
                if tj < 0:
                    continue
                counts[ti, tj] += 1.0
                counts[tj, ti] += 1.0
    total = counts.sum()
    marg = counts.sum(axis=1)
    if total == 0:
        return tokens, counts, marg
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.outer(marg, marg) / total
        ratio = np.where(expected > 0, counts * total / np.maximum(expected * total, 1e-300), 0.0)
        ppmi = np.where(ratio > 0, np.log(np.maximum(ratio, 1e-300)), 0.0)
    return tokens, np.maximum(ppmi, 0.0), marg


def reference_static_embeddings(token_seqs, dim=64, window=5, max_vocab=5000):
    """The dense PPMI matrix through a full eigh, with the sign convention
    and zero rows of train_static_embeddings."""
    tokens, ppmi, marg = reference_ppmi(token_seqs, window, max_vocab)
    n = len(tokens)
    if n == 0:
        return StaticEmbeddingTable([], np.zeros((0, 1)))
    d = min(dim, n)
    eigvals, eigvecs = np.linalg.eigh(ppmi)
    order = np.argsort(eigvals)[::-1][:d]
    lam = np.maximum(eigvals[order], 0.0)
    vecs = eigvecs[:, order]
    flip = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    flip[flip == 0] = 1.0
    emb = vecs * flip * np.sqrt(lam)
    emb[marg == 0] = 0.0
    return StaticEmbeddingTable(tokens, emb)


def random_corpus(rng):
    """Short sequences over a small alphabet: repeats inside a window are
    common, and empty and one-token sequences occur."""
    alphabet = ["t%d" % i for i in range(int(rng.integers(1, 30)))]
    seqs = []
    for _ in range(int(rng.integers(0, 25))):
        length = int(rng.choice([0, 1, 2, int(rng.integers(3, 20))]))
        seqs.append([alphabet[int(i)] for i in rng.integers(0, len(alphabet), length)])
    return seqs


class TestStaticEmbeddingsMatchDenseReference:
    def assert_same(self, seqs, dim=64, window=5, max_vocab=5000) -> bool:
        """The PPMI cells equal the dense reference's matrix bit for bit,
        and the embeddings agree with its eigh through their Gram matrix
        E E^T, which is all coherence uses. False, with the Gram matrix
        not compared, when lambda_d > 0 ties with lambda_d+1: the top-d
        subspace is then not unique. Eigenpairs with lambda <= 0 add
        nothing to E E^T, so a tie there is compared."""
        tokens, rows, cols, values, marg = F._ppmi(seqs, window, max_vocab)
        want_tokens, ppmi, want_marg = reference_ppmi(seqs, window, max_vocab)
        assert tokens == want_tokens
        assert np.all(values > 0)
        dense = np.zeros_like(ppmi)
        dense[rows, cols] = values
        assert np.array_equal(dense, ppmi)
        assert np.array_equal(marg, want_marg)

        got = train_static_embeddings(seqs, dim=dim, window=window, max_vocab=max_vocab)
        want = reference_static_embeddings(seqs, dim=dim, window=window, max_vocab=max_vocab)
        assert got.tokens == want.tokens
        assert got.matrix.shape == want.matrix.shape
        if not tokens:
            return True
        lam = np.linalg.eigvalsh(ppmi)[::-1]
        d = got.dim
        if d < len(lam) and lam[d - 1] > 0 and lam[d - 1] - lam[d] <= 1e-9 * lam[d - 1]:
            return False
        gram = got.matrix @ got.matrix.T
        assert np.abs(gram - want.matrix @ want.matrix.T).max() <= 1e-10 * max(1.0, lam[0])
        return True

    def test_random_corpora(self):
        rng = np.random.default_rng(11)
        oov_windows = ties = 0
        for _ in range(240):
            seqs = random_corpus(rng)
            distinct = len({t for s in seqs for t in s})
            max_vocab = int(rng.integers(1, distinct + 2)) if distinct else 5
            oov_windows += max_vocab < distinct
            ties += not self.assert_same(seqs, dim=int(rng.integers(1, 12)),
                                         window=int(rng.integers(1, 7)),
                                         max_vocab=max_vocab)
        assert oov_windows >= 50
        assert ties <= 2

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 6])
    def test_repeats_and_oov_inside_windows(self, window):
        seqs = [["a", "a", "b", "z", "a", "b", "b"], [], ["a"], ["b", "y", "a", "a"],
                ["c", "a", "x", "c", "c"]]
        assert self.assert_same(seqs, dim=3, window=window, max_vocab=3)

    def test_dim_at_least_vocab_size(self):
        # the basis reaches all n vectors, where the solver is exact
        seqs = [["a", "b", "c", "a"], ["c", "d", "b"], ["d", "a", "e"], ["e", "b"]]
        for dim in (5, 9):
            assert self.assert_same(seqs, dim=dim, window=2)
            assert train_static_embeddings(seqs, dim=dim, window=2).matrix.shape == (5, 5)

    def test_no_pair_cooccurs(self):
        seqs = [["a"], ["b"], [], ["a", "z", "b"]]
        assert self.assert_same(seqs, dim=4, window=1, max_vocab=2)
        emb = train_static_embeddings(seqs, dim=4, window=1, max_vocab=2)
        assert emb.matrix.shape == (2, 2) and not emb.matrix.any()

    def test_no_positive_cell(self):
        # "a" pairs only with itself, at exactly the expected rate: PPMI 0
        seqs = [["a", "a", "a"], ["b"], ["c", "z"]]
        assert len(F._ppmi(seqs, 5, 3)[1]) == 0
        assert self.assert_same(seqs, dim=2, max_vocab=3)
        assert not train_static_embeddings(seqs, dim=2, max_vocab=3).matrix.any()

    def test_duplicated_blocks_give_the_reference_coherence(self):
        # two identical disconnected pairs: the top eigenvalue repeats, so
        # the vectors may come out rotated within its eigenspace, but E E^T
        # and so coherence do not depend on that rotation
        seqs = TestStaticEmbeddings().make_corpus()
        stats = CommentStats.fit(seqs)
        for dim in (2, 3, 8):
            assert self.assert_same(seqs, dim=dim)
            got = train_static_embeddings(seqs, dim=dim)
            want = reference_static_embeddings(seqs, dim=dim)
            sentences = [["alpha"], ["beta"], ["gamma", "delta"], ["alpha", "gamma"],
                         ["beta", "beta", "delta"], ["solo", "alpha"]]
            for a, b in itertools.product(sentences, repeat=2):
                assert abs(coherence(a, b, got, stats) - coherence(a, b, want, stats)) <= 1e-12

    def test_every_copy_of_a_repeated_top_eigenvalue(self):
        # twelve isolated two-token sequences all get PPMI log(total / 2),
        # so each is a block [[0, v], [v, 0]]: the top eigenvalue v has
        # multiplicity 12. Alone (n = 24), every run of the solver spans
        # one block; beside a connected corpus, the first run converges
        # with one copy of v and later runs must find the other eleven
        pairs = [["p%02d" % i, "q%02d" % i] for i in range(12)]
        lam = np.linalg.eigvalsh(reference_ppmi(pairs)[1])[::-1]
        assert np.allclose(lam[:12], lam[0]) and lam[12] < 0
        assert self.assert_same(pairs, dim=12)
        rng = np.random.default_rng(0)
        vocab = ["w%02d" % i for i in range(30)]
        seqs = [[vocab[int(i)] for i in rng.integers(0, 30, 20)] for _ in range(100)] + pairs
        lam = np.linalg.eigvalsh(reference_ppmi(seqs)[1])[::-1]
        assert np.allclose(lam[:12], lam[0]) and lam[12] < 0.5 * lam[0]
        for dim in (12, 16):
            assert self.assert_same(seqs, dim=dim)

    def test_pairs_never_cross_a_sequence_boundary(self):
        # end to end "a b" and "c d" would pair b with c
        seqs = [["a", "b"], ["c", "d"], ["a", "b"], ["d", "c"], ["e"], ["f"]]
        emb = train_static_embeddings(seqs, dim=4, window=5)
        for token in ("e", "f"):
            assert np.array_equal(vector(emb, token), np.zeros(emb.dim))
        assert self.assert_same(seqs, dim=4, window=5)

    @staticmethod
    def traced_peak(seqs, **kwargs):
        # numpy reports its array buffers to tracemalloc; LAPACK workspace
        # is not traced, so this bounds the arrays numpy allocates
        import tracemalloc
        tracemalloc.start()
        try:
            emb = train_static_embeddings(seqs, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return emb, peak

    def test_traced_peak_stays_near_one_dense_matrix(self):
        # 16k tokens over 1,000 words fill 14% of the cells, and the pair
        # list and cell arrays of the PPMI build set this peak
        rng = np.random.default_rng(3)
        n = 1000
        vocab = ["w%04d" % i for i in range(n)]
        seqs = [[vocab[int(i)] for i in rng.integers(0, n, 40)] for _ in range(400)]
        emb, peak = self.traced_peak(seqs, dim=16, window=5)
        assert len(emb.tokens) == n
        assert peak <= 2.5 * 8 * n * n

    def test_traced_peak_on_sparse_cells_is_below_a_quarter_dense_matrix(self):
        # Zipf-distributed draws over 1,000 words, each word also once on
        # its own, fill about 1% of the cells; what remains is the cells
        # and the Lanczos basis of m vectors of n floats (m is 160 here),
        # where a dense matrix alone is 8 n^2 bytes
        rng = np.random.default_rng(3)
        n = 1000
        vocab = ["w%04d" % i for i in range(n)]
        p = 1.0 / np.arange(1, n + 1)
        seqs = [[vocab[int(i)] for i in rng.choice(n, 8, p=p / p.sum())] for _ in range(300)]
        seqs += [[w] for w in vocab]
        emb, peak = self.traced_peak(seqs, dim=2, window=5)
        assert len(emb.tokens) == n
        assert peak <= 8 * n * n / 4


def zipf_cells(seed, n=300, length=8, count=400):
    """Zipf-distributed draws over n words, and their `_ppmi` cells."""
    rng = np.random.default_rng(seed)
    vocab = ["w%04d" % i for i in range(n)]
    p = 1.0 / np.arange(1, n + 1)
    seqs = [[vocab[int(i)] for i in rng.choice(n, length, p=p / p.sum())]
            for _ in range(count)]
    return seqs, F._ppmi(seqs, 5, 5000)


class TestCellProduct:
    def test_matches_the_dense_product(self):
        rng = np.random.default_rng(5)
        corpora = [random_corpus(rng) for _ in range(60)] + [zipf_cells(s)[0] for s in range(3)]
        for seqs in corpora:
            tokens, rows, cols, values, _ = F._ppmi(seqs, 5, 5000)
            ppmi = reference_ppmi(seqs)[1]
            q = rng.standard_normal(len(tokens))
            got = F._cell_product(rows, cols, values, len(tokens))(q)
            assert np.abs(got - ppmi @ q).max(initial=0.0) <= 1e-12

    def test_no_cell_gives_zeros(self):
        none = np.zeros(0, dtype=np.int64)
        got = F._cell_product(none, none, np.zeros(0), 4)(np.arange(4.0))
        assert got.dtype == np.float64 and np.array_equal(got, np.zeros(4))

    def test_shuffled_cells_give_the_same_eigenpairs(self):
        _, (tokens, rows, cols, values, _) = zipf_cells(1)
        n = len(tokens)
        perm = np.random.default_rng(2).permutation(len(values))
        q = np.random.default_rng(3).standard_normal(n)
        assert np.array_equal(F._cell_product(rows, cols, values, n)(q),
                              F._cell_product(rows[perm], cols[perm], values[perm], n)(q))
        want = F._top_eigenpairs(rows, cols, values, n, 8)
        got = F._top_eigenpairs(rows[perm], cols[perm], values[perm], n, 8)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# a Zipf corpus over 1,500 words; its first Lanczos run reaches m = 358,
# past the m n of about 4.6e5 at which OpenBLAS splits a product with an
# (m, n) matrix across two threads
_FIT_SCRIPT = """
import sys
import numpy as np
from hiercomment.features import train_static_embeddings
rng = np.random.default_rng(0)
n = 1500
vocab = ["w%04d" % i for i in range(n)]
p = 1.0 / np.arange(1, n + 1)
seqs = [[vocab[int(i)] for i in rng.choice(n, 10, p=p / p.sum())] for _ in range(4000)]
seqs += [[w] for w in vocab]
sys.stdout.buffer.write(train_static_embeddings(seqs, dim=32).matrix.tobytes())
"""


class TestFitBlasThreads:
    def test_embeddings_are_byte_identical_under_one_and_two_threads(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", _FIT_SCRIPT], env=env, check=True,
                                  capture_output=True, timeout=600)
            outs.append(proc.stdout)
        assert len(outs[0]) == 8 * 1500 * 32
        assert outs[0] == outs[1]


def reference_sentence_repr(tokens, emb, stats):
    """The per-token loop sentence_repr replaced."""
    out = np.zeros(emb.dim if emb.dim else 1)
    for t in tokens:
        out = out + vector(emb, t) / (1.0 + stats.doc_freq.get(t, 0))
    return out


class TestSentenceReprMatchesTokenLoop:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 64])
    def test_seeded_random_token_lists(self, dim):
        # a lone column (dim 1) is where a plain numpy sum would go pairwise
        rng = np.random.default_rng(dim)
        known = ["k%02d" % i for i in range(12)]
        scale = 10.0 ** rng.integers(-6, 6, (len(known), 1))
        emb = StaticEmbeddingTable(known, rng.standard_normal((len(known), dim)) * scale)
        # k09..k11 have no document frequency, k00 has 0 stored
        doc_freq = {t: int(rng.integers(0, 40)) for t in known[:9]}
        doc_freq["k00"] = 0
        stats = CommentStats(n_comments=50, doc_freq=doc_freq)
        pool = known + ["unk%d" % i for i in range(4)]
        for length in [0, 1, 2] + [int(k) for k in rng.integers(3, 120, 200)]:
            tokens = [pool[int(i)] for i in rng.integers(0, len(pool), length)]
            assert np.array_equal(sentence_repr(tokens, emb, stats),
                                  reference_sentence_repr(tokens, emb, stats))
        for tokens in ([], ["k03", "k03", "k03"], ["unk0"], ["unk0", "unk1"]):
            assert np.array_equal(sentence_repr(tokens, emb, stats),
                                  reference_sentence_repr(tokens, emb, stats))

    def test_table_without_tokens(self):
        emb = StaticEmbeddingTable([], np.zeros((0, 1)))
        stats = CommentStats(n_comments=1, doc_freq={"a": 1})
        for tokens in ([], ["a"], ["a", "b", "a"]):
            assert np.array_equal(sentence_repr(tokens, emb, stats),
                                  reference_sentence_repr(tokens, emb, stats))


class TestCoherence:
    def setup_method(self):
        self.emb = StaticEmbeddingTable(
            ["a", "b", "c"],
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        self.stats = CommentStats.fit([["a", "b"], ["a"], ["c"]])

    def test_sentence_repr_weights_by_doc_freq(self):
        r = sentence_repr(["a", "b"], self.emb, self.stats)
        assert np.allclose(r, [1.0 / 3.0, 1.0 / 2.0])

    def test_duplicates_count_twice(self):
        one = sentence_repr(["a"], self.emb, self.stats)
        two = sentence_repr(["a", "a"], self.emb, self.stats)
        assert np.allclose(two, 2 * one)

    def test_empty_or_oov_gives_zero_vector_and_zero_coherence(self):
        assert np.array_equal(sentence_repr([], self.emb, self.stats),
                              np.zeros(2))
        assert coherence([], ["a"], self.emb, self.stats) == 0.0
        assert coherence(["zzz"], ["a"], self.emb, self.stats) == 0.0

    def test_identical_sentences_score_one(self):
        assert coherence(["a", "b"], ["a", "b"], self.emb, self.stats) == pytest.approx(1.0)

    def test_orthogonal_sentences_score_zero(self):
        assert coherence(["a"], ["b"], self.emb, self.stats) == pytest.approx(0.0)

    def test_combined_level_is_rounded_mean(self):
        assert combine_coherence_levels(
            {"sup_comment": 5, "sub_method": 4, "sub_class_name": 4}) == 4
        assert combine_coherence_levels(
            {"sup_comment": 1, "sub_method": 2, "sub_class_name": 2}) == 2
        assert combine_coherence_levels(
            {"sup_comment": 1, "sub_method": 1, "sub_class_name": 2}) == 1
        assert combine_coherence_levels(
            {"sup_comment": 3, "sub_method": 3, "sub_class_name": 3}) == 3

    def test_fit_coherence_bins_covers_all_sides(self):
        rng = random.Random(0)
        scores = {s: [rng.random() for _ in range(30)] for s in F.COHERENCE_SIDES}
        bins = fit_coherence_bins(scores, k=5)
        assert set(bins) == set(F.COHERENCE_SIDES)
        for side in F.COHERENCE_SIDES:
            assert 1 <= bins[side].level(0.5) <= 5


# each example rewrites the one file it reads, so the shared tmp_path is safe
FILE_PROPERTY = settings(max_examples=50, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestArtifacts:
    def build(self):
        comments = [["tok%d" % j for j in range(i + 1)] for i in range(10)]
        stats = CommentStats.fit(comments)
        spec_bins = fit_specificity_bins(comments, stats, k=5)
        emb = train_static_embeddings(comments, dim=4, seed=0)
        coh_scores = {s: [i / 10.0 for i in range(10)] for s in F.COHERENCE_SIDES}
        return FeatureArtifacts(
            mode="first", dataset_hash="ab" * 32, stats=stats,
            spec_bins=spec_bins, coh_bins=fit_coherence_bins(coh_scores),
            embeddings=emb)

    def test_roundtrip(self, tmp_path):
        art = self.build()
        path = str(tmp_path / "features.bin")
        art.save(path)
        back = FeatureArtifacts.load(path)
        assert back.mode == art.mode
        assert back.dataset_hash == art.dataset_hash
        assert back.stats.n_comments == art.stats.n_comments
        assert back.stats.doc_freq == art.stats.doc_freq
        assert back.spec_bins == art.spec_bins
        assert back.coh_bins == art.coh_bins
        assert back.embeddings.tokens == art.embeddings.tokens
        assert np.array_equal(back.embeddings.matrix, art.embeddings.matrix)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a feature artifact"):
            FeatureArtifacts.load(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        art = self.build()
        path = str(tmp_path / "features.bin")
        art.save(path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            FeatureArtifacts.load(path)

    @FILE_PROPERTY
    @given(matrix=arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(1, 3))))
    def test_roundtrip_any_embedding_matrix(self, tmp_path, matrix):
        art = self.build()
        art.embeddings = StaticEmbeddingTable(["t%d" % i for i in range(len(matrix))], matrix)
        path = str(tmp_path / "features.bin")
        art.save(path)
        back = FeatureArtifacts.load(path)
        assert back.embeddings.tokens == art.embeddings.tokens
        assert back.embeddings.matrix.shape == matrix.shape
        assert np.array_equal(back.embeddings.matrix, matrix, equal_nan=True)

    @FILE_PROPERTY
    @given(data=st.data())
    def test_any_cut_rejected(self, tmp_path, data):
        path = tmp_path / "features.bin"
        self.build().save(str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError):
            FeatureArtifacts.load(str(path))

    @FILE_PROPERTY
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_any_appended_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "features.bin"
        self.build().save(str(path))
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match="trailing"):
            FeatureArtifacts.load(str(path))

    def test_save_is_deterministic(self, tmp_path):
        art = self.build()
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        art.save(p1)
        art.save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_failed_save_leaves_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "features.bin"
        self.build().save(str(path))
        before = path.read_bytes()
        art = self.build()
        art.embeddings = StaticEmbeddingTable(["x"], np.ones((1, 2)))

        def fail(arr, dtype=None):
            raise OSError("no space left on device")
        # the magic and header are written by then
        monkeypatch.setattr(np, "ascontiguousarray", fail)
        with pytest.raises(OSError, match="no space"):
            art.save(str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.bin"]
