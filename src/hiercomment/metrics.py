"""Generation quality metrics and significance tests.

Sentence-level BLEU-4 (add-one smoothing on the n >= 2 precisions),
ROUGE-L (beta = 1.2), and a two-stage METEOR (exact then suffix-stem
matching, no synonym stage).  Corpus scores are arithmetic means of
per-example scores.  Significance comes from a paired bootstrap over
example indices and a Wilcoxon signed-rank test with normal
approximation and tie correction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .features import QuantileBins, CommentStats, lcs_pairs, niwf_raw


# ---------------------------------------------------------------- BLEU-4

def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(reference_tokens: list, hypothesis_tokens: list) -> float:
    """Sentence BLEU-4 with brevity penalty.

    The unigram precision is unsmoothed; higher orders get add-one
    smoothing on both numerator and denominator so short sentences do
    not degenerate to zero.  An empty hypothesis, or one sharing no
    unigram with the reference, scores 0.
    """
    if not hypothesis_tokens:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        hyp_counts = _ngram_counts(hypothesis_tokens, n)
        ref_counts = _ngram_counts(reference_tokens, n)
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total = sum(hyp_counts.values())
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += 0.25 * math.log(precision)
    r, h = len(reference_tokens), len(hypothesis_tokens)
    bp = math.exp(1.0 - r / h) if h < r else 1.0
    return bp * math.exp(log_sum)


# --------------------------------------------------------------- ROUGE-L

def rouge_l(reference_tokens: list, hypothesis_tokens: list,
            beta: float = 1.2) -> float:
    """LCS F-measure: P = LCS/|hyp|, R = LCS/|ref|, recall-weighted."""
    if not reference_tokens or not hypothesis_tokens:
        return 0.0
    lcs = len(lcs_pairs(reference_tokens, hypothesis_tokens))
    if lcs == 0:
        return 0.0
    p = lcs / len(hypothesis_tokens)
    r = lcs / len(reference_tokens)
    b2 = beta * beta
    return ((1 + b2) * p * r) / (r + b2 * p)


# ---------------------------------------------------------------- METEOR

def stem(token: str) -> str:
    """Tiny deterministic suffix stripper shared by METEOR's stem stage.

    Ordered rules, first hit wins; stems shorter than 3 characters are
    left alone.  Plain plurals lose only the "s" so "values" and
    "value" agree.
    """
    if len(token) <= 3:
        return token
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ies"):
        return token[:-2]
    for suf in ("ing", "ed", "ly"):
        if token.endswith(suf) and len(token) - len(suf) >= 3:
            return token[: len(token) - len(suf)]
    if token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


def _count_chunks(pairs: list) -> int:
    """Chunks = maximal runs contiguous in both sequences (pairs sorted
    by hypothesis position)."""
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def _align(hyp: list, ref: list, node_cap: int = 200000):
    """Best unigram alignment: maximize exact matches, then total
    matches, then minimize chunks.  Returns (matches, chunks).

    Exact equality implies stem equality, so the maximal counts are
    fixed by per-group minima; a depth-first search (contiguous
    continuations first) finds the fewest-chunk alignment realizing
    them, falling back to the best found if the node budget runs out.
    """
    hyp_stems = [stem(t) for t in hyp]
    ref_stems = [stem(t) for t in ref]
    stem_groups_h = Counter(hyp_stems)
    stem_groups_r = Counter(ref_stems)
    total_max = sum(min(c, stem_groups_r[g]) for g, c in stem_groups_h.items())
    if total_max == 0:
        return 0, 0
    exact_h = Counter(hyp)
    exact_r = Counter(ref)
    exact_max = sum(min(c, exact_r[g]) for g, c in exact_h.items())

    candidates = []
    for i, s in enumerate(hyp_stems):
        js = [j for j, rs in enumerate(ref_stems) if rs == s]
        candidates.append(js)

    best = {"chunks": None, "nodes": 0}
    used = [False] * len(ref)

    def dfs(i, matched, exact, chunks, prev):
        if best["nodes"] > node_cap:
            return
        best["nodes"] += 1
        if best["chunks"] is not None and chunks >= best["chunks"]:
            return
        remaining = len(hyp) - i
        if matched + remaining < total_max or exact + remaining < exact_max:
            return
        if i == len(hyp):
            if matched == total_max and exact == exact_max:
                best["chunks"] = chunks
            return
        js = candidates[i]
        order = sorted(js, key=lambda j: (used[j],
                                          0 if (prev and i == prev[0] + 1
                                                and j == prev[1] + 1) else 1, j))
        for j in order:
            if used[j]:
                continue
            cont = prev is not None and i == prev[0] + 1 and j == prev[1] + 1
            used[j] = True
            dfs(i + 1, matched + 1, exact + (hyp[i] == ref[j]),
                chunks + (0 if cont else 1), (i, j))
            used[j] = False
        dfs(i + 1, matched, exact, chunks, prev)

    dfs(0, 0, 0, 0, None)
    if best["chunks"] is None:
        # budget exhausted before a full assignment: greedy left-to-right
        pairs = []
        used = [False] * len(ref)
        prev = None
        for i, js in enumerate(candidates):
            pick = None
            if prev and i == prev[0] + 1 and prev[1] + 1 < len(ref) \
                    and not used[prev[1] + 1] and (prev[1] + 1) in js:
                pick = prev[1] + 1
            else:
                for j in js:
                    if not used[j]:
                        pick = j
                        break
            if pick is not None:
                used[pick] = True
                pairs.append((i, pick))
                prev = (i, pick)
        return len(pairs), _count_chunks(pairs)
    return total_max, best["chunks"]


def meteor(reference_tokens: list, hypothesis_tokens: list) -> float:
    """Unigram F-mean with a fragmentation penalty.

    Fmean = 10PR / (R + 9P); penalty = 0.5 (chunks/matches)^3;
    score = Fmean (1 - penalty).  Zero when nothing aligns.
    """
    if not reference_tokens or not hypothesis_tokens:
        return 0.0
    m, chunks = _align(hypothesis_tokens, reference_tokens)
    if m == 0:
        return 0.0
    p = m / len(hypothesis_tokens)
    r = m / len(reference_tokens)
    fmean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1.0 - penalty)


# ------------------------------------------------------------- reporting

@dataclass
class MetricReport:
    n: int
    bleu4: float
    meteor: float
    rouge_l: float
    per_example: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"n": self.n, "bleu4": self.bleu4, "meteor": self.meteor,
                "rouge_l": self.rouge_l, "per_example": self.per_example}


def score_corpus(examples: list) -> MetricReport:
    """Score (id, reference_tokens, hypothesis_tokens) triples.

    Corpus values are arithmetic means of the per-example scores.
    """
    per = []
    for ex_id, ref, hyp in examples:
        per.append({
            "id": ex_id,
            "bleu4": bleu4(ref, hyp),
            "meteor": meteor(ref, hyp),
            "rouge_l": rouge_l(ref, hyp),
        })
    if not per:
        return MetricReport(n=0, bleu4=0.0, meteor=0.0, rouge_l=0.0)
    return MetricReport(
        n=len(per),
        bleu4=float(np.mean([e["bleu4"] for e in per])),
        meteor=float(np.mean([e["meteor"] for e in per])),
        rouge_l=float(np.mean([e["rouge_l"] for e in per])),
        per_example=per,
    )


# ---------------------------------------------------------- significance

@dataclass
class SignificanceResult:
    test_name: str
    statistic: float
    p_value: float
    n_resamples: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {"test": self.test_name, "statistic": self.statistic,
                "p_value": self.p_value, "n_resamples": self.n_resamples,
                "seed": self.seed}


_BOOTSTRAP_BLOCK = 500   # resamples drawn at a time


def _resample_means(values: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Means of `n` resamples of `values` with replacement: the rows of one
    (n, size) index draw from `rng`, drawn _BOOTSTRAP_BLOCK rows at a time
    so only a block of indices is in memory."""
    means = []
    for start in range(0, n, _BOOTSTRAP_BLOCK):
        rows = min(_BOOTSTRAP_BLOCK, n - start)
        means.append(values[rng.integers(0, values.size, size=(rows, values.size))].mean(axis=1))
    return np.concatenate(means)


def bootstrap_test(scores_a, scores_b, n: int = 10000,
                   seed: int = 0) -> SignificanceResult:
    """Paired bootstrap, one-sided with a hypothesized better than b.

    Resamples example indices with replacement; p is the fraction of
    resamples where mean(a) <= mean(b), counting exact ties as half so
    identical inputs give p = 0.5.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("bootstrap_test needs equal-length 1-D paired scores")
    if a.size == 0:
        raise ValueError("bootstrap_test needs at least one pair")
    if n < 1:
        raise ValueError("bootstrap_test needs at least one resample, got n=%d" % n)
    diff = a - b
    means = _resample_means(diff, n, np.random.default_rng(seed))
    p = float((np.count_nonzero(means < 0) + 0.5 * np.count_nonzero(means == 0)) / n)
    return SignificanceResult(test_name="paired-bootstrap",
                              statistic=float(diff.mean()), p_value=p,
                              n_resamples=n, seed=seed)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(x, y) -> SignificanceResult:
    """Two-sided Wilcoxon signed-rank test, normal approximation.

    Zero differences are dropped; tied absolute differences get average
    ranks with the variance reduced by sum(t^3 - t)/48.  All-zero
    differences give p = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("wilcoxon_signed_rank needs equal-length 1-D samples")
    d = x - y
    d = d[d != 0]
    n = d.size
    if n == 0:
        return SignificanceResult(test_name="wilcoxon", statistic=0.0, p_value=1.0)
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sorted_abs = absd[order]
    i = 0
    tie_correction = 0.0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i:j + 1]] = avg_rank
        t = j - i + 1
        if t > 1:
            tie_correction += t ** 3 - t
        i = j + 1
    w_plus = float(ranks[d > 0].sum())
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_correction / 48.0
    if var <= 0:
        return SignificanceResult(test_name="wilcoxon", statistic=w_plus, p_value=1.0)
    z = (w_plus - mean) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return SignificanceResult(test_name="wilcoxon", statistic=w_plus, p_value=p)


def niwf_report(pairs: list, stats: CommentStats, bins: QuantileBins) -> dict:
    """Compare specificity of paired sub/sup comments.

    `pairs` holds (sub_tokens, sup_tokens).  Returns normalized-NIWF
    means per side and a paired Wilcoxon p-value.
    """
    if len(pairs) < 2:
        raise ValueError("insufficient pairs for a specificity report, got %d"
                         % len(pairs))
    sub_vals = []
    sup_vals = []
    for sub_tokens, sup_tokens in pairs:
        sub_vals.append(bins.normalize(niwf_raw(sub_tokens, stats)))
        sup_vals.append(bins.normalize(niwf_raw(sup_tokens, stats)))
    sig = wilcoxon_signed_rank(sub_vals, sup_vals)
    return {
        "n": len(pairs),
        "mean_sub": float(np.mean(sub_vals)),
        "mean_sup": float(np.mean(sup_vals)),
        "wilcoxon_statistic": sig.statistic,
        "wilcoxon_p": sig.p_value,
    }
