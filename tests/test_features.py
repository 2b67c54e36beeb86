import itertools
import math
import random
from collections import Counter

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


class TestStaticEmbeddings:
    def make_corpus(self):
        seqs = [["alpha", "beta"] for _ in range(20)]
        seqs += [["gamma", "delta"] for _ in range(20)]
        seqs += [["solo"] for _ in range(5)]
        return seqs

    def test_cooccurring_pair_has_high_cosine(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        a, b = emb.vector("alpha"), emb.vector("beta")
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos >= 0.9

    def test_isolated_token_gets_zero_vector(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        assert np.array_equal(emb.vector("solo"), np.zeros(emb.dim))

    def test_oov_token_gets_zero_vector(self):
        emb = train_static_embeddings(self.make_corpus(), dim=8, seed=0)
        assert np.array_equal(emb.vector("missing"), np.zeros(emb.dim))

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
            vx, vy = emb.vector(x), emb.vector(y)
            return vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy) + 1e-12)
        assert cos("alpha", "beta") > cos("alpha", "gamma") + 0.5

    def test_empty_corpus(self):
        emb = train_static_embeddings([], dim=8)
        assert emb.tokens == []


def reference_static_embeddings(token_seqs, dim=64, window=5, max_vocab=5000):
    """The dense builder: counts filled pair by pair in an n x n matrix,
    PPMI computed over every cell, then the same eigh and sign convention
    as train_static_embeddings."""
    freq = Counter()
    for seq in token_seqs:
        freq.update(seq)
    tokens = sorted(freq, key=lambda t: (-freq[t], t))[:max_vocab]
    tokens.sort()
    index = {t: i for i, t in enumerate(tokens)}
    n = len(tokens)
    if n == 0:
        return StaticEmbeddingTable([], np.zeros((0, 1)))
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
    d = min(dim, n)
    if total == 0:
        return StaticEmbeddingTable(tokens, np.zeros((n, d)))
    marg = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.outer(marg, marg) / total
        ratio = np.where(expected > 0, counts * total / np.maximum(expected * total, 1e-300), 0.0)
        ppmi = np.where(ratio > 0, np.log(np.maximum(ratio, 1e-300)), 0.0)
    ppmi = np.maximum(ppmi, 0.0)
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
    def assert_same(self, seqs, **kwargs):
        got = train_static_embeddings(seqs, **kwargs)
        want = reference_static_embeddings(seqs, **kwargs)
        assert got.tokens == want.tokens
        assert np.array_equal(got.matrix, want.matrix)

    def test_random_corpora(self):
        rng = np.random.default_rng(11)
        oov_windows = 0
        for _ in range(240):
            seqs = random_corpus(rng)
            distinct = len({t for s in seqs for t in s})
            max_vocab = int(rng.integers(1, distinct + 2)) if distinct else 5
            oov_windows += max_vocab < distinct
            self.assert_same(seqs, dim=int(rng.integers(1, 12)),
                             window=int(rng.integers(1, 7)), max_vocab=max_vocab)
        assert oov_windows >= 50

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 6])
    def test_repeats_and_oov_inside_windows(self, window):
        seqs = [["a", "a", "b", "z", "a", "b", "b"], [], ["a"], ["b", "y", "a", "a"],
                ["c", "a", "x", "c", "c"]]
        self.assert_same(seqs, dim=3, window=window, max_vocab=3)

    def test_no_pair_cooccurs(self):
        seqs = [["a"], ["b"], [], ["a", "z", "b"]]
        self.assert_same(seqs, dim=4, window=1, max_vocab=2)
        emb = train_static_embeddings(seqs, dim=4, window=1, max_vocab=2)
        assert emb.matrix.shape == (2, 2) and not emb.matrix.any()

    def test_pairs_never_cross_a_sequence_boundary(self):
        # end to end "a b" and "c d" would pair b with c
        seqs = [["a", "b"], ["c", "d"], ["a", "b"], ["d", "c"], ["e"], ["f"]]
        emb = train_static_embeddings(seqs, dim=4, window=5)
        for token in ("e", "f"):
            assert np.array_equal(emb.vector(token), np.zeros(emb.dim))
        self.assert_same(seqs, dim=4, window=5)

    def test_traced_peak_stays_near_one_dense_matrix(self):
        # numpy reports array buffers to tracemalloc; eigh's LAPACK
        # workspace is not traced, so this bounds the Python-visible arrays
        import tracemalloc
        rng = np.random.default_rng(3)
        n = 1000
        vocab = ["w%04d" % i for i in range(n)]
        seqs = [[vocab[int(i)] for i in rng.integers(0, n, 40)] for _ in range(400)]
        tracemalloc.start()
        try:
            emb = train_static_embeddings(seqs, dim=16, window=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(emb.tokens) == n
        assert peak <= 2.5 * 8 * n * n


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
