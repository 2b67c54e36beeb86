"""Auxiliary token features and comment-level statistics.

Three groups live here: per-token features fed to the encoders (edit
labels from an LCS diff of sub vs sup streams, Java keyword/operator
flags, lexical-overlap flags, and shallow comment features with a
deterministic rule-based POS tagger); specificity scoring by normalized
inverse word frequency with equal-frequency level binning; and coherence
scoring by cosine similarity of frequency-weighted bags of static PPMI
embeddings, also binned into levels.
"""

from __future__ import annotations

import enum
import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .tensor import read_container, write_container

FEATURE_MAGIC = b"HCFEATS1"
FEATURE_SCHEMA_VERSION = 1

JAVA_KEYWORDS = frozenset("""
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
""".split())

JAVA_OPERATORS = frozenset([
    "+", "-", "*", "/", "%", "=", "==", "!=", "<", ">", "<=", ">=", "&&",
    "||", "!", "&", "|", "^", "~", "<<", ">>", ">>>", "++", "--", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "?", ":", ".", ",", ";",
    "(", ")", "[", "]", "{", "}", "@", "->", "::",
])

STOP_WORDS = frozenset("""
    a about above after again against all also am an and any are as at be
    because been before being below between both but by can cannot could
    did do does doing down during each either etc few for from further had
    has have having he her here hers herself him himself his how i if in
    into is it its itself just may me might more most must my myself
    neither no nor not now of off on once only onto or other our ours
    ourselves out over own per same shall she should since so some such
    than that the their theirs them themselves then there these they this
    those through to too under until up upon us very via was we were what
    when where whether which while who whom whose why will with within
    without would you your yours yourself
""".split())

_DET = frozenset("the a an this that these those each every all any some no both either neither such".split())
_PREP = frozenset("""of in to for with on at by from into onto over under after before during
    through between within without about against via per upon across along around behind
    below above beneath beside toward towards until since as off out up down""".split())
_PRON = frozenset("it its itself they them their theirs he she him her his hers we us our ours you your i me my something anything everything nothing who whom whose what".split())
_ADV = frozenset("not also always never often currently already again once twice here there now then otherwise first lazily eagerly recursively".split())
_CONJ = frozenset("and or but nor if else when while whether because so than etc".split())
_ADJ = frozenset("new same other empty valid invalid true false null current next previous last underlying internal external default more most available".split())
_VERB_STEMS = frozenset("""
    accept add append apply bind build cache call can catch check clear
    close compare compute consume contain convert copy create decode
    delete destroy determine dispose do does emit encode ensure execute
    extend fetch fill filter find flush format generate get handle has have
    hold implement indicate initialize insert invoke is iterate join load
    log lookup make map may merge move must notify open override parse
    perform print process produce provide push pop read receive register
    reject release remove replace reset resolve retrieve return run save
    see send set should skip sleep sort specify split start stop store
    test throw transform trim try unwrap update use validate verify visit
    wait will wrap write
""".split())

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "DET", "PREP", "PRON", "NUM", "PUNCT", "OTHER")


def java_token_class(token: str) -> tuple[bool, bool]:
    """(is_keyword, is_operator) for one lowercased code token."""
    return token in JAVA_KEYWORDS, token in JAVA_OPERATORS


def pos_tag(token: str) -> str:
    """Deterministic coarse POS tag from small lexicons and suffix rules."""
    if not any(ch.isalnum() for ch in token):
        return "PUNCT"
    if all(ch.isdigit() for ch in token):
        return "NUM"
    if token in _DET:
        return "DET"
    if token in _PREP:
        return "PREP"
    if token in _PRON:
        return "PRON"
    if token in _CONJ:
        return "OTHER"
    if token in _ADV:
        return "ADV"
    if token in _ADJ:
        return "ADJ"
    if token in _VERB_STEMS:
        return "VERB"
    if token.endswith("s") and token[:-1] in _VERB_STEMS:
        return "VERB"
    if len(token) > 4 and (token.endswith("ing") or token.endswith("ed")):
        return "VERB"
    if token.endswith("ly") and len(token) > 3:
        return "ADV"
    if len(token) > 4 and token.endswith(("able", "ible", "ful", "ous", "ive", "less", "ish", "al")):
        return "ADJ"
    return "NOUN"


class EditLabel(enum.IntEnum):
    RETAIN = 0
    ADD = 1
    DELETE = 2
    REPLACE = 3


def lcs_pairs(a: list, b: list) -> list[tuple[int, int]]:
    """Matched (i, j) index pairs of one longest common subsequence."""
    n, m = len(a), len(b)
    L = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row, prev = L[i], L[i - 1]
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    pairs = []
    i, j = n, m
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1] and L[i][j] == L[i - 1][j - 1] + 1:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif L[i - 1][j] >= L[i][j - 1]:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def diff_labels(sub_tokens: list[str], sup_tokens: list[str]) -> list[EditLabel]:
    """Edit label per sub token relative to the sup sequence.

    LCS members are RETAIN.  A run of sub-only tokens between the same
    two LCS anchors as a run of sup-only tokens is REPLACE; a sub-only
    run with no sup counterpart is ADD.  DELETE never appears here: it
    would mark sup-only tokens, which have no sub position.
    """
    pairs = lcs_pairs(sub_tokens, sup_tokens)
    labels = [EditLabel.ADD] * len(sub_tokens)
    prev_i, prev_j = 0, 0
    for i, j in pairs + [(len(sub_tokens), len(sup_tokens))]:
        if i > prev_i and j > prev_j:
            labels[prev_i:i] = [EditLabel.REPLACE] * (i - prev_i)
        prev_i, prev_j = i + 1, j + 1
    for i, _ in pairs:
        labels[i] = EditLabel.RETAIN
    return labels


def comment_token_features(tokens: list[str]) -> list[tuple[bool, bool, str]]:
    """(appears_more_than_once, is_stop_word, pos_tag) per comment token."""
    counts = Counter(tokens)
    return [(counts[t] > 1, t in STOP_WORDS, pos_tag(t)) for t in tokens]


# stream feature matrices ------------------------------------------------

STREAMS = ("method", "class_name", "sup_comment")
RAW_FEATURE_DIMS = {"method": 12, "class_name": 8, "sup_comment": 17}


def _stream_onehot(stream: str) -> list[float]:
    return [1.0 if s == stream else 0.0 for s in STREAMS]


def _edit_onehot(label: EditLabel) -> list[float]:
    return [1.0 if int(label) == k else 0.0 for k in range(4)]


def method_stream_features(sub_method_tokens, sup_method_tokens,
                           sub_name_tokens, sup_name_tokens,
                           sup_comment_tokens) -> np.ndarray:
    labels = diff_labels(sub_method_tokens, sup_method_tokens)
    sub_name = set(sub_name_tokens)
    sup_name = set(sup_name_tokens)
    sup_com = set(sup_comment_tokens)
    rows = []
    for tok, lab in zip(sub_method_tokens, labels):
        kw, op = java_token_class(tok)
        rows.append([float(kw), float(op)] + _edit_onehot(lab)
                    + [float(tok in sub_name), float(tok in sup_name), float(tok in sup_com)]
                    + _stream_onehot("method"))
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), RAW_FEATURE_DIMS["method"])


def class_name_stream_features(sub_name_tokens, sup_name_tokens,
                               sub_method_tokens) -> np.ndarray:
    labels = diff_labels(sub_name_tokens, sup_name_tokens)
    method = set(sub_method_tokens)
    rows = []
    for tok, lab in zip(sub_name_tokens, labels):
        rows.append(_edit_onehot(lab) + [float(tok in method)] + _stream_onehot("class_name"))
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), RAW_FEATURE_DIMS["class_name"])


def sup_comment_stream_features(sup_comment_tokens, sub_name_tokens,
                                sub_method_tokens) -> np.ndarray:
    name = set(sub_name_tokens)
    method = set(sub_method_tokens)
    shallow = comment_token_features(sup_comment_tokens)
    rows = []
    for tok, (multi, stop, tag) in zip(sup_comment_tokens, shallow):
        pos_onehot = [1.0 if tag == t else 0.0 for t in POS_TAGS]
        rows.append([float(tok in name), float(tok in method), float(multi), float(stop)]
                    + pos_onehot + _stream_onehot("sup_comment"))
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), RAW_FEATURE_DIMS["sup_comment"])


# specificity ------------------------------------------------------------

@dataclass
class CommentStats:
    """Document frequencies over the training-split target comments."""
    n_comments: int
    doc_freq: dict

    @classmethod
    def fit(cls, comments: list[list[str]]) -> "CommentStats":
        df: Counter[str] = Counter()
        for toks in comments:
            df.update(set(toks))
        return cls(n_comments=len(comments), doc_freq=dict(df))

    def iwf(self, token: str) -> float:
        """Smoothed inverse word frequency log(1 + N) / (1 + f_w)."""
        return np.log(1.0 + self.n_comments) / (1.0 + self.doc_freq.get(token, 0))


def niwf_raw(tokens: list[str], stats: CommentStats) -> float:
    """Specificity of a comment: max inverse word frequency over tokens."""
    if not tokens:
        raise ValueError("cannot score empty comment")
    return max(stats.iwf(t) for t in tokens)


@dataclass
class QuantileBins:
    """Equal-frequency binning of a bounded score into K levels."""
    k: int
    lo: float
    hi: float
    edges: list

    @classmethod
    def fit(cls, values: list[float], k: int = 5) -> "QuantileBins":
        vals = sorted(float(v) for v in values)
        if len(set(vals)) < k:
            raise ValueError("need at least %d distinct values to fit %d levels, got %d"
                             % (k, k, len(set(vals))))
        lo, hi = vals[0], vals[-1]
        span = hi - lo
        norm = [(v - lo) / span for v in vals]
        n = len(norm)
        edges = [norm[(j * n) // k] for j in range(1, k)]
        return cls(k=k, lo=lo, hi=hi, edges=edges)

    def normalize(self, value: float) -> float:
        span = self.hi - self.lo
        if span <= 0:
            return 0.0
        return min(1.0, max(0.0, (value - self.lo) / span))

    def level(self, value: float) -> int:
        x = self.normalize(value)
        return 1 + sum(1 for e in self.edges if e < x)


def fit_specificity_bins(comments: list[list[str]], stats: CommentStats,
                         k: int = 5) -> QuantileBins:
    return QuantileBins.fit([niwf_raw(c, stats) for c in comments], k=k)


# static embeddings and coherence ----------------------------------------

class StaticEmbeddingTable:
    """Frozen token embeddings from a PPMI co-occurrence factorization."""

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        self.tokens = list(tokens)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._index = {t: i for i, t in enumerate(self.tokens)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _ppmi(token_seqs: list[list[str]], window: int, max_vocab: int):
    """The vocabulary and the positive cells of its PPMI co-occurrence matrix.

    The vocabulary is the `max_vocab` most frequent tokens (ties
    lexicographic), sorted. Returns `(tokens, rows, cols, values, marg)`:
    cell (rows[i], cols[i]) of the symmetric n x n matrix holds
    values[i] > 0, every other cell is 0, and marg[t] counts the pairs
    token t is in. Only the cells that co-occur are ever built.
    """
    freq: Counter[str] = Counter()
    for seq in token_seqs:
        freq.update(seq)
    tokens = sorted(freq, key=lambda t: (-freq[t], t))[:max_vocab]
    tokens.sort()
    index = {t: i for i, t in enumerate(tokens)}
    n = len(tokens)

    # sequences end to end; a pair counts only inside one sequence, and an
    # OOV token (-1) holds its window position without ever pairing
    ids = np.fromiter((index.get(t, -1) for seq in token_seqs for t in seq), dtype=np.int64)
    owner = np.repeat(np.arange(len(token_seqs)), [len(seq) for seq in token_seqs])
    pairs = [np.zeros(0, dtype=np.int64)]
    for k in range(1, window + 1):
        a, b = ids[:-k], ids[k:]
        keep = (a >= 0) & (b >= 0) & (owner[:-k] == owner[k:])
        a, b = a[keep], b[keep]
        pairs += [a * n + b, b * n + a]
    cells, counts = np.unique(np.concatenate(pairs), return_counts=True)
    del ids, owner, pairs

    counts = counts.astype(np.float64)
    total = counts.sum()
    rows, cols = np.divmod(cells, n)
    marg = np.bincount(rows, weights=counts, minlength=n)
    # the dense formulas restricted to the non-zero cells, where expected > 0
    expected = marg[rows] * marg[cols] / total
    ratio = counts * total / np.maximum(expected * total, 1e-300)
    values = np.log(ratio)
    keep = values > 0
    return tokens, rows[keep], cols[keep], values[keep], marg


_LANCZOS_BLOCK = 32   # basis rows allocated at a time
_BREAKDOWN = 1e-12     # beta below this times the largest |alpha| or beta seen: restart
_TOLERANCE = 1e-13     # Ritz residual accepted, relative to the largest |Ritz value|
_DGKS = 2 ** -0.5      # a pass that leaves less than this share of |w| is repeated


def _cell_product(rows, cols, values, n: int):
    """q -> A @ q for the n x n matrix A whose only non-zero cells are
    (rows[i], cols[i]) -> values[i]. Each row's cells are added in column
    order as one segment, whatever order the cells come in (_ppmi's come
    sorted), so the product does not depend on that order."""
    key = rows * n + cols
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
    urows, starts = np.unique(rows, return_index=True)

    def product(q):
        w = np.zeros(n)
        w[urows] = np.add.reduceat(values * q[cols], starts)
        return w
    return product


def _top_eigenpairs(rows, cols, values, n: int, d: int):
    """The d largest eigenvalues, descending, and their eigenvectors as the
    columns of an (n, d) array, of the symmetric n x n matrix whose only
    non-zero cells are (rows[i], cols[i]) -> values[i].

    Lanczos iteration (Lanczos 1950; Paige 1972), multiplying by the cells
    directly (`_cell_product`). Each step subtracts alpha q and beta q_prev,
    as the three-term recurrence does, and then runs one Gram-Schmidt pass
    against the whole basis; a second pass follows only when the first
    left less than 1/sqrt(2) of the vector's norm (Daniel, Gragg, Kaufman &
    Stewart 1976), which the recurrence makes rare. The basis is kept in
    blocks of _LANCZOS_BLOCK rows, one product per block: one product with
    the whole (m, n) basis is faster, but OpenBLAS splits it across threads
    once m n passes about 4.6e5, and its last bits then move with the
    thread count; a block's 32 n values stay below that while n is under
    about 14,000.

    The basis is built in runs. Each run starts from a random vector
    (a fixed-seed generator) orthogonal to the earlier runs and is coupled
    to them by zeros. A run ends when its vectors span an invariant
    subspace, or when each of the d largest Ritz values found so far has
    converged: its residual is at most 1e-13 of the largest |Ritz value|.
    One run holds at most one copy of a repeated eigenvalue, so the next
    run looks for more in the space the earlier ones left. The iteration
    stops when the d largest have converged and the latest run's largest
    Ritz value has converged to no more than the dth, which shows that the
    space left holds nothing larger; or when the basis spans all n
    dimensions. A run's tridiagonal matrix is diagonalized after 10 steps
    and then every max(10, length / 8) steps, so these tests cost O(m^3)
    in all for m basis vectors.
    """
    rng = np.random.default_rng(0)
    blocks = []    # the basis, _LANCZOS_BLOCK rows at a time; unfilled rows are 0
    alphas, betas = [], []   # the tridiagonal matrix of the current run
    kept = []      # (value, first basis row, coefficients) of earlier runs' top Ritz pairs
    scale = 0.0
    product = _cell_product(rows, cols, values, n)

    def orthogonalize(w):
        # a second pass only when the first removed most of w (DGKS)
        before = np.linalg.norm(w)
        for _ in range(2):
            for blk in blocks:
                w -= (blk @ w) @ blk
            after = float(np.linalg.norm(w))
            if after >= before * _DGKS:
                break
        return w, after

    def fresh():
        w, norm = orthogonalize(rng.standard_normal(n))
        return w / norm

    q, m, start, check = fresh(), 0, 0, 10
    while True:
        if m % _LANCZOS_BLOCK == 0:
            blocks.append(np.zeros((min(_LANCZOS_BLOCK, n - m), n)))
        blocks[-1][m % _LANCZOS_BLOCK] = q
        m += 1
        w = product(q)
        alphas.append(q @ w)
        # the three-term recurrence leaves little for the full pass
        w -= alphas[-1] * q
        if betas:
            w -= betas[-1] * prev
        w, beta = orthogonalize(w)
        scale = max(scale, abs(alphas[-1]), beta)
        closed = m == n or beta <= _BREAKDOWN * scale
        if not closed and m - start < check:
            betas.append(beta)
            prev, q = q, w / beta
            continue
        # eigh reads only the lower triangle; its last pair is the run's largest
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
        pairs = kept + [(theta[i], start, s[:, i]) for i in range(len(theta))]
        ritz = np.array([p[0] for p in pairs])
        resid = np.zeros(len(pairs))
        if not closed:
            resid[len(kept):] = np.abs(beta * s[-1])
        top = np.argsort(ritz)[::-1][:d]
        tol = _TOLERANCE * np.max(np.abs(ritz))
        converged = len(top) == d and np.all(resid[top] <= tol)
        settled = start > 0 and resid[-1] <= tol and ritz[-1] <= ritz[top[-1]]
        if m == n or (converged and settled):
            coef = np.zeros((m, d))
            for j, i in enumerate(top):
                _, first, c = pairs[i]
                coef[first:first + len(c), j] = c
            parts = np.split(coef, range(_LANCZOS_BLOCK, m, _LANCZOS_BLOCK))
            return ritz[top], sum(blk[:len(part)].T @ part
                                  for blk, part in zip(blocks, parts))
        if closed or (converged and (start == 0 or ritz[-1] > ritz[top[-1]])):
            # a pair outside the d largest never re-enters them
            kept = [pairs[i] for i in top]
            alphas, betas = [], []
            q, start, check = fresh(), m, 10
        else:
            betas.append(beta)
            prev, q = q, w / beta
            check = m - start + max(10, (m - start) // 8)


def train_static_embeddings(token_seqs: list[list[str]], dim: int = 64,
                            window: int = 5, seed: int = 0,
                            max_vocab: int = 5000) -> StaticEmbeddingTable:
    """Token embeddings from the top `dim` eigenpairs of a PPMI matrix.

    The PPMI co-occurrence matrix over the `max_vocab` most frequent tokens
    (ties lexicographic) is kept as its positive cells, and its `dim`
    largest eigenpairs come from the Lanczos solver in `_top_eigenpairs`;
    no dense n x n matrix is built. A token's vector is its row of the
    eigenvectors scaled by sqrt(max(eigenvalue, 0)). Deterministic:
    eigenvectors get a fixed sign convention (the largest-magnitude entry
    is positive), and tokens that never co-occur keep exact zero vectors.
    The dimension shrinks to the vocabulary size if smaller. `seed` is
    accepted and has no effect: the solver starts from a fixed vector.
    """
    tokens, rows, cols, values, marg = _ppmi(token_seqs, window, max_vocab)
    n = len(tokens)
    if n == 0:
        return StaticEmbeddingTable([], np.zeros((0, 1)))
    d = min(dim, n)
    lam, vecs = _top_eigenpairs(rows, cols, values, n, d)
    flip = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)])
    flip[flip == 0] = 1.0
    emb = vecs * flip * np.sqrt(np.maximum(lam, 0.0))
    emb[marg == 0] = 0.0
    return StaticEmbeddingTable(tokens, emb)


def sentence_repr(tokens: list[str], emb: StaticEmbeddingTable,
                  stats: CommentStats) -> np.ndarray:
    """Frequency-discounted bag of embeddings: sum of e_w / (1 + f_w),
    added in token order; an unknown token adds a zero vector."""
    if not tokens:
        return np.zeros(emb.dim if emb.dim else 1)
    ids = np.array([emb._index.get(t, -1) for t in tokens], dtype=np.int64)
    known = ids >= 0
    # numpy sums a 2-D array down its rows in order only when a row holds
    # more than one value (a lone column is summed pairwise), so pad to two
    rows = np.zeros((len(tokens), max(emb.dim, 2)))
    rows[known, :emb.dim] = emb.matrix[ids[known]]
    rows /= 1.0 + np.array([stats.doc_freq.get(t, 0) for t in tokens], dtype=np.float64)[:, None]
    return rows.sum(axis=0)[:emb.dim]


def coherence(tokens_a: list[str], tokens_b: list[str],
              emb: StaticEmbeddingTable, stats: CommentStats) -> float:
    """Cosine similarity of sentence representations; 0 on zero vectors."""
    ra = sentence_repr(tokens_a, emb, stats)
    rb = sentence_repr(tokens_b, emb, stats)
    na, nb = np.linalg.norm(ra), np.linalg.norm(rb)
    if na == 0 or nb == 0:
        return 0.0
    return float(ra @ rb / (na * nb))


# side name (a key in features.bin) -> the stream the gold comment is
# compared with
COHERENCE_SIDES = {"sup_comment": "sup_comment", "sub_method": "method",
                   "sub_class_name": "class_name"}


def fit_coherence_bins(scores_by_side: dict, k: int = 5) -> dict:
    """One QuantileBins per coherence side, fit on training scores."""
    return {side: QuantileBins.fit(scores_by_side[side], k=k) for side in COHERENCE_SIDES}


def combine_coherence_levels(levels: dict) -> int:
    """One conditioning level from the per-side levels: rounded mean."""
    vals = [levels[s] for s in COHERENCE_SIDES]
    return int(np.floor(sum(vals) / len(vals) + 0.5))


# artifact bundle ---------------------------------------------------------

@dataclass
class FeatureArtifacts:
    mode: str
    dataset_hash: str
    stats: CommentStats
    spec_bins: QuantileBins
    coh_bins: dict
    embeddings: StaticEmbeddingTable

    def save(self, path: str) -> None:
        header = {
            "mode": self.mode,
            "dataset_hash": self.dataset_hash,
            "stats": {"n_comments": self.stats.n_comments, "doc_freq": self.stats.doc_freq},
            "spec_bins": {"k": self.spec_bins.k, "lo": self.spec_bins.lo,
                          "hi": self.spec_bins.hi, "edges": self.spec_bins.edges},
            "coh_bins": {
                side: {"k": b.k, "lo": b.lo, "hi": b.hi, "edges": b.edges}
                for side, b in self.coh_bins.items()
            },
            "emb_tokens": self.embeddings.tokens,
            "emb_shape": list(self.embeddings.matrix.shape),
        }
        write_container(path, FEATURE_MAGIC, FEATURE_SCHEMA_VERSION, header,
                        [self.embeddings.matrix])

    @classmethod
    def load(cls, path: str) -> "FeatureArtifacts":
        def parse(header, arrays):
            return cls(
                mode=header["mode"],
                dataset_hash=header["dataset_hash"],
                stats=CommentStats(header["stats"]["n_comments"],
                                   dict(header["stats"]["doc_freq"])),
                spec_bins=QuantileBins(**header["spec_bins"]),
                coh_bins={side: QuantileBins(**b) for side, b in header["coh_bins"].items()},
                embeddings=StaticEmbeddingTable(header["emb_tokens"], arrays[0]),
            )
        return read_container(path, FEATURE_MAGIC, FEATURE_SCHEMA_VERSION,
                              "feature artifact", lambda h: [h["emb_shape"]], parse)


def dataset_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
