"""Seeded synthetic Java source trees for the benchmark workloads.

A tree holds several projects.  Each project holds class hierarchies: an
abstract base class whose methods carry Javadoc, subclasses that override
some of them with their own Javadoc, and grandchildren that override
again, one class per file.  Identifiers in method bodies and class names
are camelCase joins of invented lowercase words, so the repository's
tokenizer splits them back into those words; drawing the words from a
lexicon of a chosen size sets how many distinct tokens the mined corpus
holds.  Comment words come from a small Zipf-weighted vocabulary, so the
specificity statistic of a comment (its rarest word) takes many values.
A share of extra files is malformed on purpose (unbalanced braces,
unterminated comments) and must be skipped by `mine` without a crash.

Same arguments, same bytes: the generator uses only `random.Random(seed)`
and writes files in a fixed order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_VERBS = ("returns", "loads", "stores", "computes", "resolves", "updates", "reads",
          "writes", "checks", "creates", "removes", "finds", "builds", "parses",
          "formats", "merges", "applies", "opens", "closes", "validates")
_GLUE = ("the", "a", "of", "for", "this", "given", "in", "to", "from", "with",
         "and", "current", "new", "each", "all", "by")
_PREFIXES = ("cached", "remote", "local", "default", "lazy", "shared", "simple",
             "pooled", "sorted", "fixed", "async", "strict")
_TYPES = ("String", "int", "long", "Object", "boolean", "double")


@dataclass(frozen=True)
class TreeSpec:
    """Sizes of one generated tree."""
    projects: int
    hierarchies_per_project: int
    lexicon: int                 # distinct identifier words
    comment_words: int           # distinct topic words used in comments
    body_statements: int         # statements per overriding method body
    malformed_per_project: int


CORPUS_SCALE = TreeSpec(projects=32, hierarchies_per_project=9, lexicon=5300,
                        comment_words=700, body_statements=3,
                        malformed_per_project=1)
PAPER_DIMS = TreeSpec(projects=20, hierarchies_per_project=10, lexicon=10600,
                      comment_words=900, body_statements=3,
                      malformed_per_project=0)
SMOKE = TreeSpec(projects=4, hierarchies_per_project=2, lexicon=300,
                 comment_words=60, body_statements=2, malformed_per_project=1)


def _lexicon(rng: random.Random, size: int) -> list:
    words = set()
    while len(words) < size:
        n = rng.choice((2, 2, 3, 3, 4))
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(n)))
    return sorted(words)


def _camel(words: list, upper_first: bool) -> str:
    out = "".join(w.capitalize() for w in words)
    return out if upper_first else out[0].lower() + out[1:]


class _Gen:
    def __init__(self, spec: TreeSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        words = _lexicon(self.rng, spec.lexicon + spec.comment_words)
        self.rng.shuffle(words)
        self.ident_words = words[:spec.lexicon]
        self.topic_words = words[spec.lexicon:]
        # Zipf weights over topic words: a few common, a long rare tail
        self.topic_weights = [1.0 / (i + 1) for i in range(len(self.topic_words))]
        # identifier draws cycle through a shuffled lexicon so every word
        # appears at least once before any repeats
        self._ident_order = []

    def ident_word(self) -> str:
        if not self._ident_order:
            self._ident_order = list(self.ident_words)
            self.rng.shuffle(self._ident_order)
        return self._ident_order.pop()

    def topic(self) -> str:
        return self.rng.choices(self.topic_words, weights=self.topic_weights)[0]

    def comment(self, verb: str, noun: str, owner_words: list, extra: int) -> str:
        # a third of the comments name no class and use only common words,
        # so the rarest word of a comment ranges from unique to common
        if self.rng.random() < 0.35:
            common = self.topic_words[:6]
            words = [self.rng.choice(_VERBS[:3]).capitalize(), "the",
                     self.rng.choices(common, weights=self.topic_weights[:6])[0]]
            for _ in range(extra):
                words += [self.rng.choice(_GLUE[:4]), self.rng.choice(common)]
            return " ".join(words) + "."
        words = [verb.capitalize(), "the", noun]
        for _ in range(extra):
            words.append(self.rng.choice(_GLUE))
            words.append(self.topic())
        words += ["of", "this"] + owner_words
        return " ".join(words) + "."

    def body(self, ret_type: str, params: list) -> list:
        lines = []
        local = None
        for _ in range(self.spec.body_statements):
            target = _camel([self.ident_word(), self.ident_word()], False)
            call = _camel([self.ident_word(), self.ident_word()], False)
            args = ", ".join(p for _, p in params) or "0"
            lines.append("        Object %s = this.%s(%s);" % (target, call, args))
            local = target
        lines.append("        if (%s == null) {" % local)
        lines.append("            throw new IllegalStateException(\"%s\");" % self.ident_word())
        lines.append("        }")
        if ret_type == "void":
            lines.append("        this.%s = %s;" % (_camel([self.ident_word()], False), local))
        elif ret_type == "boolean":
            lines.append("        return %s != null;" % local)
        elif ret_type in ("int", "long", "double"):
            lines.append("        return %s.hashCode();" % local)
        elif ret_type == "String":
            lines.append("        return String.valueOf(%s);" % local)
        else:
            lines.append("        return %s;" % local)
        return lines


def _method_src(gen: _Gen, m: dict, comment: str, override: bool, abstract: bool) -> list:
    lines = ["    /**", "     * " + comment, "     *"]
    for _, pname in m["params"]:
        lines.append("     * @param %s the %s" % (pname, pname))
    lines.append("     */")
    if override:
        lines.append("    @Override")
    sig = "%s %s(%s)" % (m["ret"], m["name"],
                         ", ".join("%s %s" % p for p in m["params"]))
    if abstract:
        lines.append("    public abstract %s;" % sig)
    else:
        lines.append("    public %s {" % sig)
        lines.extend(gen.body(m["ret"], m["params"]))
        lines.append("    }")
    lines.append("")
    return lines


def _class_src(package: str, name: str, parent, abstract: bool, members: list) -> str:
    head = "public %sclass %s%s {" % ("abstract " if abstract else "", name,
                                       " extends %s" % parent if parent else "")
    lines = ["package %s;" % package, "", "/** The %s class. */" % name, head, ""]
    for member in members:
        lines.extend(member)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hierarchy(gen: _Gen, package: str) -> tuple:
    """Files ({name: source}) and expected override pairs of one hierarchy."""
    rng = gen.rng
    base_words = [gen.ident_word(), gen.ident_word()]
    base = _camel(base_words, True)
    methods = []
    for k in range(4):
        params = [(rng.choice(_TYPES), _camel([gen.ident_word()], False))
                  for _ in range(rng.choice((0, 1, 1, 2)))]
        methods.append({"name": _camel([rng.choice(_VERBS)[:-1], gen.ident_word()], False),
                        "params": params, "ret": rng.choice(_TYPES + ("void",)),
                        "noun": gen.topic(), "verb": rng.choice(_VERBS)})
    files = {}
    base_comments = {m["name"]: gen.comment(m["verb"], m["noun"], base_words,
                                            rng.choice((0, 1)))
                     for m in methods}
    files[base] = _class_src(package, base, None, True, [
        _method_src(gen, m, base_comments[m["name"]], False, True) for m in methods])
    pairs = 0
    prefixes = rng.sample(_PREFIXES, 3)
    for prefix in prefixes:
        sub_words = [prefix] + base_words
        sub = _camel(sub_words, True)
        chosen = rng.sample(methods, 2)
        members = []
        for m in chosen:
            text = gen.comment(rng.choice(_VERBS), m["noun"], sub_words, rng.choice((1, 2, 2, 3)))
            members.append(_method_src(gen, m, text, True, False))
        # the first subclass keeps concrete copies of the remaining
        # methods so its own subclass has something to override
        if prefix == prefixes[0]:
            for m in methods:
                if m not in chosen:
                    members.append(_method_src(gen, m, gen.comment(
                        m["verb"], m["noun"], sub_words, 1), True, False))
            pairs += 2
        files[sub] = _class_src(package, sub, base, False, members)
        pairs += 2
    grand_words = [rng.choice(_PREFIXES)] + [prefixes[0]] + base_words
    grand = _camel(grand_words, True)
    m = rng.choice(methods)
    files[grand] = _class_src(package, grand, _camel([prefixes[0]] + base_words, True),
                              False, [_method_src(gen, m, gen.comment(
                                  rng.choice(_VERBS), m["noun"], grand_words, 2),
                                  True, False)])
    pairs += 1
    return files, pairs


def _malformed(gen: _Gen, package: str, k: int) -> tuple:
    name = "Broken%s%d" % (_camel([gen.ident_word()], True), k)
    src = _class_src(package, name, None, False, [])
    if k % 2 == 0:
        return name, src.rstrip().rstrip("}") + "\n"          # unbalanced braces
    # a comment that never closes swallows the class's closing brace
    return name, src[:-2] + "/** unterminated comment\n}\n"


@dataclass
class TreeManifest:
    """What one generated tree holds."""
    projects: int
    java_files: int
    malformed_files: int
    expected_pairs: int


def generate_tree(spec: TreeSpec, seed: int) -> tuple:
    """A seeded Java tree in memory: ({relative path: source}, TreeManifest)."""
    gen = _Gen(spec, seed)
    tree = {}
    n_bad = n_pairs = 0
    for p in range(spec.projects):
        project = "proj%02d" % p
        package = "org.%s.%s" % (project, gen.ident_word())
        pkg_dir = os.path.join(project, "src", *package.split("."))
        files = {}
        for _ in range(spec.hierarchies_per_project):
            h_files, h_pairs = _hierarchy(gen, package)
            files.update(h_files)
            n_pairs += h_pairs
        for k in range(spec.malformed_per_project):
            name, src = _malformed(gen, package, k + p)
            files[name] = src
            n_bad += 1
        for name in sorted(files):
            tree[os.path.join(pkg_dir, name + ".java")] = files[name]
    return tree, TreeManifest(projects=spec.projects, java_files=len(tree),
                              malformed_files=n_bad, expected_pairs=n_pairs)


def write_files(out_dir: str, tree: dict) -> None:
    """Write a generated tree under `out_dir` (created, must not exist)."""
    os.makedirs(out_dir)
    for rel in sorted(tree):
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(tree[rel])


def write_tree(out_dir: str, spec: TreeSpec, seed: int) -> TreeManifest:
    """Generate a seeded Java tree and write it under `out_dir`."""
    tree, manifest = generate_tree(spec, seed)
    write_files(out_dir, tree)
    return manifest
