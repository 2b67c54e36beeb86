"""Tokenization, identifier subtoken splitting, and vocabularies.

Code and comments share one tokenizer: split on whitespace and
punctuation (punctuation marks survive as single-character tokens),
split identifiers at case/digit boundaries and underscores, lowercase
everything.  Joining the output subtokens and dropping underscores
always reproduces the lowercased input text with whitespace removed.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
RESERVED = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

# a "word" is a run of letters/digits/underscore/dollar; anything else
# that is not whitespace is a one-character punctuation token
_TOKEN_RE = re.compile(r"[\w$]+|[^\w\s$]", re.UNICODE)


def _split_case_runs(piece: str) -> list[str]:
    """Split one underscore-free piece at case and letter/digit boundaries."""
    if len(piece) < 2:
        return [piece]
    out = []
    start = 0
    for i in range(1, len(piece)):
        prev, cur = piece[i - 1], piece[i]
        nxt = piece[i + 1] if i + 1 < len(piece) else ""
        boundary = (
            (prev.islower() and cur.isupper())
            or (prev.isupper() and cur.isupper() and nxt.islower())
            or (prev.isalpha() and cur.isdigit())
            or (prev.isdigit() and cur.isalpha())
        )
        if boundary:
            out.append(piece[start:i])
            start = i
    out.append(piece[start:])
    return out


# a corpus repeats its identifiers, so each distinct word is split once
@functools.lru_cache(maxsize=1 << 16)
def _subtokens(token: str) -> tuple[str, ...]:
    parts: list[str] = []
    for piece in token.split("_"):
        if piece:
            parts.extend(_split_case_runs(piece))
    return tuple(p.lower() for p in parts if p)


def subtokenize(token: str) -> list[str]:
    """Split an identifier into lowercased subtokens.

    "InfoAccessSyntax" -> ["info", "access", "syntax"]
    "parseHTTPResponse2" -> ["parse", "http", "response", "2"]
    "snake_case" -> ["snake", "case"]

    Underscores are dropped; every other character is preserved, so
    "".join(subtokenize(t)) == t.lower().replace("_", "").
    """
    return list(_subtokens(token))


def tokenize(text: str) -> list[str]:
    """Tokenize source code or comment text into lowercased subtokens."""
    out: list[str] = []
    for m in _TOKEN_RE.finditer(text):
        raw = m.group(0)
        if raw[0].isalnum() or raw[0] in "_$":
            out.extend(_subtokens(raw))
        else:
            out.append(raw)
    return out


def tokenize_code(source: str) -> list[str]:
    """Tokenize a Java snippet (identifiers split, punctuation kept)."""
    return tokenize(source)


def tokenize_comment(comment: str) -> list[str]:
    """Tokenize natural-language comment text with the same rules as code."""
    return tokenize(comment)


class Vocabulary:
    """Frequency-capped token vocabulary with four reserved entries.

    Ids 0..3 are <pad>, <unk>, <bos>, <eos>; real tokens follow in order
    of decreasing frequency (ties broken lexicographically).
    """

    def __init__(self, tokens: list[str]):
        for r in RESERVED:
            if r in tokens:
                raise ValueError("reserved marker %r cannot be a vocabulary token" % r)
        self._id_to_token = list(RESERVED) + list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise ValueError("token id %d out of range [0, %d)" % (token_id, len(self)))
        return self._id_to_token[token_id]

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "reserved": list(RESERVED),
            "tokens": self._id_to_token[len(RESERVED):],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        payload = json.loads(text)
        if payload.get("schema_version") != 1:
            raise ValueError("unsupported vocabulary schema_version")
        if payload.get("reserved") != list(RESERVED):
            raise ValueError("vocabulary reserved markers do not match")
        return cls(payload["tokens"])


def build_vocab(sequences, cap: int = 10000, min_freq: int = 2) -> Vocabulary:
    """Build a vocabulary from an iterable of token sequences.

    Tokens with frequency < min_freq are dropped, the rest are ranked by
    (frequency desc, token asc) and truncated to `cap` non-reserved
    entries.
    """
    if cap < 4:
        raise ValueError("vocabulary cap must be at least 4, got %d" % cap)
    counts: Counter[str] = Counter()
    for seq in sequences:
        counts.update(seq)
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq and t not in RESERVED),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(ranked[:cap])
