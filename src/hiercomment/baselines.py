"""Rule-based baselines.

Both operate on the tokenized superclass comment: one copies it
verbatim, the other splices the subclass class-name subtokens over
every occurrence of the superclass class-name subtokens.
"""

from __future__ import annotations

from .model import ExampleInputs

__all__ = ["copy_baseline", "class_name_substitution"]


def copy_baseline(inputs: ExampleInputs) -> list:
    """Predict the superclass comment unchanged."""
    return list(inputs.sup_comment_tokens)


def substitute_subsequence(tokens: list, old: list, new: list) -> list:
    """Replace left-to-right non-overlapping runs of `old` with `new`."""
    if not old:
        return list(tokens)
    out = []
    i = 0
    n, m = len(tokens), len(old)
    while i < n:
        if tokens[i:i + m] == list(old):
            out.extend(new)
            i += m
        else:
            out.append(tokens[i])
            i += 1
    return out


def class_name_substitution(inputs: ExampleInputs) -> list:
    """Superclass comment with its class name swapped for the subclass's.

    Matching happens on lowercased subtoken sequences; when the
    superclass name never occurs, the comment is returned unchanged.
    """
    return substitute_subsequence(inputs.sup_comment_tokens,
                                  inputs.sup_name_tokens,
                                  inputs.sub_name_tokens)

