import pathlib
import random

import pytest

from hiercomment import text
from hiercomment.text import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocab,
    subtokenize,
    tokenize_code,
    tokenize_comment,
)


class TestSubtokenize:
    def test_camel_case(self):
        assert subtokenize("InfoAccessSyntax") == ["info", "access", "syntax"]

    def test_acronym_then_word_then_digit(self):
        assert subtokenize("parseHTTPResponse2") == ["parse", "http", "response", "2"]

    def test_snake_case(self):
        assert subtokenize("snake_case_name") == ["snake", "case", "name"]

    def test_digit_boundaries_both_directions(self):
        assert subtokenize("asn1") == ["asn", "1"]
        assert subtokenize("ASN1Object") == ["asn", "1", "object"]
        assert subtokenize("v2x") == ["v", "2", "x"]

    def test_underscore_only(self):
        assert subtokenize("___") == []

    def test_concatenation_invariant_random(self):
        rng = random.Random(7)
        alphabet = "abcXYZ019_"
        for _ in range(500):
            tok = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            pieces = subtokenize(tok)
            assert "".join(pieces) == tok.lower().replace("_", "")
            assert all(p for p in pieces)


class TestTokenize:
    def test_comment_with_inline_acronym(self):
        got = tokenize_comment("Returns ASN.1 encoded form of this InfoAccessSyntax.")
        assert got == [
            "returns", "asn", ".", "1", "encoded", "form", "of", "this",
            "info", "access", "syntax", ".",
        ]

    def test_code_punctuation_kept(self):
        got = tokenize_code("x=1;")
        assert got == ["x", "=", "1", ";"]

    def test_code_method_snippet(self):
        got = tokenize_code("public byte[] getEncoded()")
        assert got == ["public", "byte", "[", "]", "get", "encoded", "(", ")"]

    def test_no_empty_tokens_and_lowercase(self):
        got = tokenize_code("  Foo_Bar  BAZ9qux\t(a,b)  ")
        assert all(t and t == t.lower() for t in got)

    def test_idempotent_on_own_output(self):
        rng = random.Random(13)
        chars = "abz019_$.;(){}=+ XY"
        for _ in range(300):
            s = "".join(rng.choice(chars) for _ in range(rng.randint(0, 30)))
            once = tokenize_code(s)
            again = tokenize_code(" ".join(once))
            assert once == again


def reference_tokenize(source):
    """tokenize without the memoized identifier split."""
    out = []
    for m in text._TOKEN_RE.finditer(source):
        raw = m.group(0)
        if raw[0].isalnum() or raw[0] in "_$":
            for piece in raw.split("_"):
                if piece:
                    out.extend(p.lower() for p in text._split_case_runs(piece) if p)
        else:
            out.append(raw)
    return out


class TestMemoizedSplit:
    def test_toy_corpus_matches_uncached_reference(self):
        root = pathlib.Path(__file__).resolve().parent.parent / "data" / "toy_java"
        sources = [p.read_text(encoding="utf-8") for p in sorted(root.rglob("*.java"))]
        assert sources
        text._subtokens.cache_clear()
        for _ in range(2):  # cold cache, then warm
            for source in sources:
                assert text.tokenize(source) == reference_tokenize(source)
        assert text._subtokens.cache_info().hits > 0

    def test_returned_lists_are_fresh(self):
        first = subtokenize("parseHTTPResponse")
        first.append("mutated")
        assert subtokenize("parseHTTPResponse") == ["parse", "http", "response"]
        tokens = tokenize_code("parseHTTPResponse(x)")
        tokens.clear()
        assert tokenize_code("parseHTTPResponse(x)") == ["parse", "http", "response", "(",
                                                          "x", ")"]


class TestVocabulary:
    def test_reserved_ids(self):
        v = build_vocab([["a", "a", "b", "b"]], cap=10, min_freq=1)
        assert v.token_of(PAD_ID) == "<pad>"
        assert v.token_of(UNK_ID) == "<unk>"
        assert v.token_of(BOS_ID) == "<bos>"
        assert v.token_of(EOS_ID) == "<eos>"

    def test_cap_excludes_reserved(self):
        seqs = [[f"t{i}" for i in range(100)]] * 2
        v = build_vocab(seqs, cap=5, min_freq=1)
        assert len(v) == 5 + 4

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], cap=3, min_freq=1)

    def test_min_freq_filters(self):
        v = build_vocab([["a", "a", "b"]], cap=10, min_freq=2)
        assert "a" in v
        assert "b" not in v
        assert v.id_of("b") == UNK_ID

    def test_frequency_then_lexicographic_order(self):
        v = build_vocab([["b", "b", "c", "c", "a"]], cap=10, min_freq=1)
        assert [v.token_of(i) for i in (4, 5, 6)] == ["b", "c", "a"]

    def test_decode_out_of_range(self):
        v = build_vocab([["x", "x"]], cap=10, min_freq=1)
        with pytest.raises(ValueError):
            v.token_of(99)

    def test_json_roundtrip(self):
        v = build_vocab([["x", "y"] * 3, ["y"]], cap=10, min_freq=1)
        w = Vocabulary.from_json(v.to_json())
        assert len(w) == len(v)
        assert w.id_of("y") == v.id_of("y")
        assert w.to_json() == v.to_json()
