"""Comment-tree parsing, labeling, balancing and splitting."""

from __future__ import annotations

import inspect
import json
import random
import re
import sys

import pytest

from modkit import corpus
from modkit.corpus import (
    Comment,
    Label,
    LabeledDataset,
    LexiconCategory,
    LexiconEntry,
    apply_labels,
    balance,
    dedupe,
    flatten,
    lexicon_flag,
    parse_comment_tree,
    split,
)
from modkit.errors import (
    ConfigError,
    MalformedJsonError,
    ModkitError,
    SchemaViolationError,
    read_json_text,
)

from _fuzz import messy_text, random_text, reply_chain
from _oracles import oracle_lexicon_flag, reference_shuffle


def make_dataset(n_off: int, n_not: int) -> LabeledDataset:
    entries = [(f"off{i:05d}", f"offensive text {i}", Label.OFFENSIVE) for i in range(n_off)]
    entries += [(f"not{i:05d}", f"ordinary text {i}", Label.NOT_OFFENSIVE) for i in range(n_not)]
    return LabeledDataset(entries=tuple(entries))


class TestParse:
    def test_single_comment(self):
        tree = parse_comment_tree(
            '{"post_id":"p1","post_author":"a","comments":'
            '[{"id":"c1","author":"u1","text":"hi","replies":[]}]}'
        )
        assert len(tree.comments) == 1
        assert flatten(tree)[0].depth == 0

    def test_nested_reply_depth_and_order(self):
        tree = parse_comment_tree(
            '{"post_id":"p1","post_author":"a","comments":'
            '[{"id":"c1","author":"u1","text":"hi","replies":'
            '[{"id":"c2","author":"u2","text":"yo","replies":[]}]}]}'
        )
        assert len(tree.comments) == 2
        comments = flatten(tree)
        assert [c.id for c in comments] == ["c1", "c2"]
        assert [c.depth for c in comments] == [0, 1]

    def test_top_level_array_rejected(self):
        with pytest.raises(SchemaViolationError):
            parse_comment_tree("[]")

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(MalformedJsonError, match="^invalid JSON: Expecting value at line 2 column 3$"):
            parse_comment_tree('{"post_id":\n  ')

    def test_missing_text_names_path(self):
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_comment_tree(
                '{"post_id":"p","post_author":"a","comments":'
                '[{"id":"c1","author":"u","replies":[]}]}'
            )
        assert "comments[0]" in str(excinfo.value)

    def test_duplicate_id_rejected(self):
        with pytest.raises(SchemaViolationError, match=r"^duplicate comment id: 'c1' \(at \$\.comments\[1\]\.id; first at \$\.comments\[0\]\.id\)$"):
            parse_comment_tree(
                '{"post_id":"p","post_author":"a","comments":'
                '[{"id":"c1","author":"u","text":"x","replies":[]},'
                '{"id":"c1","author":"u","text":"y","replies":[]}]}'
            )

    def test_duplicate_id_names_both_paths(self):
        reply = {"id": "c1", "author": "u", "text": "z"}
        tree = {"post_id": "p", "post_author": "a", "comments": [
            {"id": "c1", "author": "u", "text": "x"},
            {"id": "c2", "author": "u", "text": "y", "replies": [reply]},
        ]}
        with pytest.raises(SchemaViolationError) as info:
            parse_comment_tree(json.dumps(tree))
        path = "$.comments[1].replies[0].id; first at $.comments[0].id"
        assert info.value.path == path
        assert str(info.value) == f"duplicate comment id: 'c1' (at {path})"
        assert info.value.exit_code == 3

    def test_accepts_bytes_and_emoji(self):
        raw = json.dumps(
            {
                "post_id": "p",
                "post_author": "a",
                "comments": [{"id": "c1", "author": "u", "text": "hi 😂", "replies": []}],
            },
            ensure_ascii=False,
        ).encode("utf-8")
        assert flatten(parse_comment_tree(raw))[0].text == "hi 😂"

    def test_300_deep_reply_chain(self):
        tree = parse_comment_tree(reply_chain(300))
        assert len(tree.comments) == 300
        comments = flatten(tree)
        assert [c.id for c in comments] == [f"c{i}" for i in range(300)]
        assert [c.depth for c in comments] == list(range(300))

    def test_decoded_but_too_deep_to_walk(self, monkeypatch):
        """Newer decoders may accept more nesting than the walk can recurse."""
        node: dict | None = None
        for i in reversed(range(5000)):
            node = {"id": f"c{i}", "author": "u", "text": "x", "replies": [node] if node else []}
        decoded = {"post_id": "p", "post_author": "a", "comments": [node]}
        monkeypatch.setattr(corpus, "load_json", lambda data, what: decoded)
        with pytest.raises(MalformedJsonError, match="nesting too deep"):
            parse_comment_tree("{}")

    @pytest.mark.parametrize("depth", [corpus._MAX_DEPTH, corpus._MAX_DEPTH + 1])
    def test_reply_depth_cap(self, monkeypatch, depth):
        """However deep the decoder goes, chains of up to ``_MAX_DEPTH``
        comments parse and longer ones are refused."""
        decoded = decoded_chain(depth)
        monkeypatch.setattr(corpus, "load_json", lambda data, what: decoded)
        if depth > corpus._MAX_DEPTH:
            with pytest.raises(MalformedJsonError, match="comment tree nesting too deep"):
                parse_comment_tree("{}")
        else:
            assert [c.depth for c in parse_comment_tree("{}").comments] == list(range(depth))

    def test_walk_out_of_stack_is_malformed(self, monkeypatch):
        """Called with little stack left, the walk's RecursionError becomes
        a MalformedJsonError."""
        decoded = decoded_chain(300)
        monkeypatch.setattr(corpus, "load_json", lambda data, what: decoded)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            with pytest.raises(MalformedJsonError, match="comment tree nesting too deep"):
                parse_comment_tree("{}")
        finally:
            sys.setrecursionlimit(limit)


def decoded_chain(depth: int) -> dict:
    """The decoded JSON of :func:`reply_chain`, built without recursion."""
    node: dict | None = None
    for i in reversed(range(depth)):
        node = {"id": f"c{i}", "author": "u", "text": f"reply {i}", "replies": [node] if node else []}
    return {"post_id": "p", "post_author": "op", "comments": [node]}


def random_tree_obj(rng: random.Random, max_depth: int = 5, budget: int = 200) -> dict:
    counter = [0]

    def node(depth: int) -> dict:
        counter[0] += 1
        n_children = 0
        if depth < max_depth and counter[0] < budget:
            n_children = rng.randint(0, 3)
        return {
            "id": f"n{counter[0]}-{depth}",
            "author": f"user{rng.randint(0, 9)}",
            "text": rng.choice(["hi", "ok 😂", "shut up!", "y'all", ""]),
            "replies": [node(depth + 1) for _ in range(n_children)],
        }

    return {
        "post_id": "p",
        "post_author": "op",
        "comments": [node(0) for _ in range(rng.randint(0, 4))],
    }


class TestRoundTrip:
    def test_comments_are_the_preorder_walk_of_the_json(self):
        rng = random.Random(7)
        for _ in range(50):
            obj = random_tree_obj(rng)
            slots = comment_slots(obj["comments"])
            for siblings, i in rng.sample(slots, min(5, len(slots))):
                siblings[i]["timestamp"] = f"2022-04-01T00:00:{rng.randint(0, 59):02d}"
            tree = parse_comment_tree(json.dumps(obj, ensure_ascii=False))
            assert flatten(tree) == list(tree.comments)
            assert [
                (c.id, c.author, c.text, c.timestamp, c.depth) for c in tree.comments
            ] == reference_preorder(obj["comments"])


def comment_slots(siblings: list) -> list[tuple[list, int]]:
    """(siblings, index) of every comment object under ``siblings``, in pre-order."""
    out = []
    for i, node in enumerate(siblings):
        out.append((siblings, i))
        out.extend(comment_slots(node["replies"]))
    return out


def reference_preorder(nodes: list, depth: int = 0) -> list[tuple]:
    """(id, author, text, timestamp, depth) of each comment object, parent
    before its replies, siblings in stored order."""
    out = []
    for node in nodes:
        out.append((node["id"], node["author"], node["text"], node.get("timestamp"), depth))
        out.extend(reference_preorder(node["replies"], depth + 1))
    return out


#: Ways to make a comment object invalid; one returning NOT_A_COMMENT
#: has the comment replaced by an array. ``other`` is another comment of
#: the same tree (or the same one).
NOT_A_COMMENT = object()
CORRUPTIONS = [
    lambda node, other: node.pop("text"),
    lambda node, other: node.pop("author"),
    lambda node, other: node.update(id=7),
    lambda node, other: node.update(id=""),
    lambda node, other: node.update(author=None),
    lambda node, other: node.update(text=["x"]),
    lambda node, other: node.update(timestamp=5),
    lambda node, other: node.update(replies="none"),
    lambda node, other: node.update(id=other["id"]),
    lambda node, other: NOT_A_COMMENT,
]


def corrupted_tree(seed: int) -> dict:
    """A random tree of three or more comments, two of them (drawn
    from the seed) made invalid by corruption ``seed % len(CORRUPTIONS)``."""
    rng = random.Random(seed)
    slots: list[tuple[list, int]] = []
    while len(slots) < 3:
        obj = random_tree_obj(rng)
        slots = comment_slots(obj["comments"])
    corrupt = CORRUPTIONS[seed % len(CORRUPTIONS)]
    for siblings, i in rng.sample(slots, 2):
        other_siblings, j = rng.choice(slots)
        if corrupt(siblings[i], other_siblings[j]) is NOT_A_COMMENT:
            siblings[i] = ["not", "a", "comment"]
    return obj


#: The error of the first invalid comment of each corrupted tree: type,
#: message and path, as recorded from the tree-building parser.
CORRUPTED_TREE_ERRORS = {
    0: (SchemaViolationError, "missing required field 'text'", "$.comments[0].replies[1].replies[1].replies[0].replies[0]"),
    1: (SchemaViolationError, "missing required field 'author'", "$.comments[0].replies[2].replies[0].replies[1].replies[0]"),
    2: (SchemaViolationError, "id must be a non-empty string", "$.comments[1].id"),
    3: (SchemaViolationError, "id must be a non-empty string", "$.comments[0].replies[0].replies[1].replies[0].replies[2].id"),
    4: (SchemaViolationError, "author must be a string", "$.comments[0].replies[0].replies[1].replies[0].replies[0].author"),
    5: (SchemaViolationError, "text must be a string", "$.comments[1].replies[0].replies[0].replies[0].replies[1].text"),
    6: (SchemaViolationError, "timestamp must be a string", "$.comments[3].replies[0].replies[0].replies[0].replies[1].replies[0].timestamp"),
    7: (SchemaViolationError, "replies must be an array", "$.comments[1].replies[0].replies[0].replies[1].replies[1].replies"),
    8: (SchemaViolationError, "duplicate comment id: 'n28-3'", "$.comments[0].replies[1].replies[1].replies[1].id; first at $.comments[0].replies[1].replies[0].replies[0].id"),
    9: (SchemaViolationError, "comment must be an object", "$.comments[0].replies[0].replies[0].replies[2].replies[1]"),
    10: (SchemaViolationError, "missing required field 'text'", "$.comments[2].replies[1].replies[0].replies[1].replies[0].replies[1]"),
    11: (SchemaViolationError, "missing required field 'author'", "$.comments[0].replies[0].replies[0]"),
}


@pytest.mark.parametrize("seed", sorted(CORRUPTED_TREE_ERRORS))
def test_first_invalid_comment_decides_the_error(seed):
    error, message, path = CORRUPTED_TREE_ERRORS[seed]
    with pytest.raises(error) as info:
        parse_comment_tree(json.dumps(corrupted_tree(seed)))
    assert type(info.value) is error
    assert str(info.value) == (f"{message} (at {path})" if path else message)
    assert getattr(info.value, "path", None) == path


class TestFlatten:
    def test_empty_tree(self):
        tree = parse_comment_tree('{"post_id":"p","post_author":"a","comments":[]}')
        assert flatten(tree) == []

    def test_preorder(self):
        tree = parse_comment_tree(
            json.dumps(
                {
                    "post_id": "p",
                    "post_author": "a",
                    "comments": [
                        {
                            "id": "c1",
                            "author": "u",
                            "text": "1",
                            "replies": [
                                {
                                    "id": "c2",
                                    "author": "u",
                                    "text": "2",
                                    "replies": [
                                        {"id": "c3", "author": "u", "text": "3", "replies": []}
                                    ],
                                },
                                {"id": "c4", "author": "u", "text": "4", "replies": []},
                            ],
                        }
                    ],
                }
            )
        )
        assert [c.id for c in flatten(tree)] == ["c1", "c2", "c3", "c4"]


class TestDedupe:
    def test_trimmed_duplicates_collapse(self):
        comments = [
            Comment(id="a", author="u", text="hi"),
            Comment(id="b", author="u", text="hi "),
        ]
        assert [c.id for c in dedupe(comments)] == ["a"]

    def test_distinct_unchanged(self):
        comments = [Comment(id=str(i), author="u", text=f"t{i}") for i in range(5)]
        assert dedupe(comments) == comments

    def test_empty(self):
        assert dedupe([]) == []

    def test_idempotent(self):
        comments = [
            Comment(id=str(i), author="u", text=t)
            for i, t in enumerate(["x", " x", "y", "x ", "z", "y"])
        ]
        once = dedupe(comments)
        assert dedupe(once) == once


class TestApplyLabels:
    def test_partial_labels_reported(self):
        comments = [Comment(id=f"c{i}", author="u", text=f"t{i}") for i in range(3)]
        dataset, unlabeled = apply_labels(
            comments, {"c0": Label.OFFENSIVE, "c2": Label.NOT_OFFENSIVE}
        )
        assert len(dataset) == 2
        assert unlabeled == 1

    def test_empty_label_map(self):
        comments = [Comment(id="c0", author="u", text="t")]
        dataset, unlabeled = apply_labels(comments, {})
        assert len(dataset) == 0
        assert unlabeled == 1

    def test_unknown_id(self):
        with pytest.raises(ModkitError, match="^label references unknown comment id 'zzz'$"):
            apply_labels([Comment(id="c0", author="u", text="t")], {"zzz": Label.OFFENSIVE})


class TestBalance:
    def test_class_counts_equalized(self):
        balanced = balance(make_dataset(5, 10), seed=42)
        assert balanced.n_offensive == 5
        assert balanced.n_not_offensive == 5

    def test_matches_reference_shuffle(self):
        dataset = make_dataset(5, 10)
        balanced = balance(dataset, seed=42)
        majority_ids = [cid for cid, _, lab in dataset.entries if lab is Label.NOT_OFFENSIVE]
        expected = set(reference_shuffle(majority_ids, 42)[:5])
        kept = {cid for cid, _, lab in balanced.entries if lab is Label.NOT_OFFENSIVE}
        assert kept == expected

    def test_already_balanced_unchanged(self):
        dataset = make_dataset(5, 5)
        assert balance(dataset, seed=99).entries == dataset.entries

    def test_empty_class(self):
        with pytest.raises(
            ModkitError, match=r"^both classes must be non-empty \(offensive=0, not_offensive=5\)$"
        ):
            balance(make_dataset(0, 5), seed=0)

    def test_subset_and_determinism(self):
        dataset = make_dataset(7, 23)
        first = balance(dataset, seed=7)
        second = balance(dataset, seed=7)
        assert first.entries == second.entries
        assert set(first.ids()) <= set(dataset.ids())

    def test_idempotent_on_balanced(self):
        balanced = balance(make_dataset(8, 20), seed=3)
        again = balance(balanced, seed=12345)
        assert len(again) == len(balanced)
        assert again.n_offensive == balanced.n_offensive


class TestSplit:
    def test_floor_allocation_with_remainder_to_train(self):
        train, val, test = split(make_dataset(2034, 2034), (0.8, 0.1, 0.1), seed=0)
        assert (len(train), len(val), len(test)) == (3256, 406, 406)

    def test_all_train(self):
        train, val, test = split(make_dataset(3, 3), (1.0, 0.0, 0.0), seed=0)
        assert (len(train), len(val), len(test)) == (6, 0, 0)

    def test_ten_items(self):
        train, val, test = split(make_dataset(5, 5), (0.8, 0.1, 0.1), seed=1)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_partition_properties(self):
        dataset = make_dataset(13, 29)
        train, val, test = split(dataset, (0.6, 0.2, 0.2), seed=5)
        ids = [set(part.ids()) for part in (train, val, test)]
        assert ids[0] | ids[1] | ids[2] == set(dataset.ids())
        assert not ids[0] & ids[1] and not ids[0] & ids[2] and not ids[1] & ids[2]

    def test_deterministic(self):
        dataset = make_dataset(10, 10)
        a = split(dataset, (0.8, 0.1, 0.1), seed=9)
        b = split(dataset, (0.8, 0.1, 0.1), seed=9)
        assert [p.entries for p in a] == [p.entries for p in b]

    def test_seed_outside_64_bits_raises(self):
        """splitmix64 reads a seed's low 64 bits, so -1 would split as 2**64 - 1."""
        dataset = make_dataset(25, 25)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=f"^seed must be in 0..{2**64 - 1}, got {seed}$"):
                split(dataset, (0.8, 0.1, 0.1), seed)
        for seed in (0, 2**64 - 1):
            assert sum(map(len, split(dataset, (0.8, 0.1, 0.1), seed))) == 50

    def test_bad_ratios(self):
        with pytest.raises(ConfigError, match=r"^ratios must sum to 1, got 1\.5$"):
            split(make_dataset(2, 2), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(
            ConfigError, match=r"^ratios must be three non-negative fractions, got \(-0\.1, 0\.6, 0\.5\)$"
        ):
            split(make_dataset(2, 2), (-0.1, 0.6, 0.5), seed=0)


class TestLexiconFlag:
    LEXICON = [LexiconEntry(term="retard", category=LexiconCategory.DISCRIMINATORY)]

    def test_whole_word_hit(self):
        hits = lexicon_flag([Comment(id="c", author="u", text="you retard")], self.LEXICON)
        assert hits == {"c": [("retard", LexiconCategory.DISCRIMINATORY)]}

    def test_substring_not_matched(self):
        hits = lexicon_flag([Comment(id="c", author="u", text="retardant foam")], self.LEXICON)
        assert hits == {}

    def test_empty_lexicon(self):
        assert lexicon_flag([Comment(id="c", author="u", text="anything")], []) == {}

    def test_case_insensitive_and_once_per_term(self):
        hits = lexicon_flag(
            [Comment(id="c", author="u", text="Retard... retard! RETARD")], self.LEXICON
        )
        assert hits["c"] == [("retard", LexiconCategory.DISCRIMINATORY)]

    def test_underscore_is_a_boundary(self):
        hits = lexicon_flag([Comment(id="c", author="u", text="x_retard_x")], self.LEXICON)
        assert "c" in hits


FUZZ_LEXICON = [
    LexiconEntry(term, category)
    for term, category in [
        ("idiot", LexiconCategory.DEROGATORY),
        ("shut up", LexiconCategory.THREATENING),
        ("loser", LexiconCategory.DEROGATORY),
        ("up", LexiconCategory.WATCHWORD),
        ("c++", LexiconCategory.WATCHWORD),
        ("go back", LexiconCategory.DISCRIMINATORY),
        ("dumb", LexiconCategory.DEROGATORY),
    ]
]
#: Spellings spliced into fuzz texts: exact, mixed case, inside longer
#: words, against ``_`` and digits, ``ſ``/``İ`` (IGNORECASE matches
#: them, ``str.lower`` does not), multi-word and overlapping terms, and
#: a term with regex metacharacters.
SPLICES = [
    "idiot", "IDIOT", "iDiOt", "idiots", "xidiot", "_idiot", "idiot_", "7idiot", "idiot42",
    "loſer", "LOſER", "İdiot", "İDIOT", "shut up", "SHUT UP", "Shut up!", "shutup", "shut  up",
    "up", "Up", "upside", "setup", "c++", "C++", "c+++", "xc++", "c++x", "(c++)", "c+",
    "go back", "GO BACK", "go backwards", "dumb", "DUMB", "dumber", "é_dumb", "dumbé",
]


def spliced_text(rng: random.Random) -> str:
    text = messy_text(rng) if rng.random() < 0.5 else random_text(rng)
    for _ in range(rng.randint(0, 3)):
        at = rng.choice([0, len(text), rng.randint(0, len(text))])
        text = text[:at] + rng.choice(SPLICES) + text[at:]
    return text


class TestLexiconAlternation:
    """One alternation over all terms finds exactly the comments that the
    per-term patterns find; those still decide the reported terms."""

    def test_matches_per_term_patterns_on_fuzz(self):
        rng = random.Random(41)
        comments = [Comment(id=f"c{i}", author="u", text=spliced_text(rng)) for i in range(3000)]
        for lexicon in (FUZZ_LEXICON, FUZZ_LEXICON[::-1], FUZZ_LEXICON[2:5], FUZZ_LEXICON[4:5], []):
            expected = oracle_lexicon_flag(comments, lexicon)
            assert lexicon_flag(comments, lexicon) == expected
            if lexicon:
                assert 0 < len(expected) < len(comments)
        multi = oracle_lexicon_flag(comments, FUZZ_LEXICON)
        assert any(len(found) > 1 for found in multi.values())
        any_term = corpus._whole_words(FUZZ_LEXICON)
        assert {c.id for c in comments if any_term.search(c.text)} == set(multi)

    def test_screen_matches_per_term_patterns_on_fuzz(self):
        """The lowercase screen and the search from the first match: all-ASCII
        texts; texts that fold onto ASCII through K (lowercase k) or hold
        İ ı ſ; lexicons with a term IGNORECASE folds onto ASCII letters,
        where the screen must stand down; and first matches of later terms."""
        rng = random.Random(43)
        spliced = [spliced_text(rng) for _ in range(2000)]
        texts = [text.encode("ascii", "ignore").decode() for text in spliced] + spliced + [
            text.replace("k", "\u212a").replace("K", "\u212a") for text in spliced[:500]
        ] + ["you LOSER", "loser!", "go back"]
        comments = [Comment(id=f"c{i}", author="u", text=text) for i, text in enumerate(texts)]
        assert sum(c.text.isascii() for c in comments) > 2000
        assert sum("\u212a" in c.text for c in comments) > 50
        folding = [
            LexiconEntry("loſer", LexiconCategory.DEROGATORY),
            LexiconEntry("ıdiot", LexiconCategory.DEROGATORY),
            LexiconEntry("\u212aaren", LexiconCategory.WATCHWORD),
        ]
        karen = LexiconEntry("karen", LexiconCategory.WATCHWORD)
        for lexicon in (
            [*FUZZ_LEXICON, karen], [karen, *FUZZ_LEXICON[::-1]], folding, [*FUZZ_LEXICON, *folding],
        ):
            expected = oracle_lexicon_flag(comments, lexicon)
            assert lexicon_flag(comments, lexicon) == expected
        ascii_hits = oracle_lexicon_flag([c for c in comments if c.text.isascii()], folding)
        assert {term for found in ascii_hits.values() for term, _ in found} == {e.term for e in folding}
        assert self.later_term_first(comments, [*FUZZ_LEXICON, karen]) > 20

    @staticmethod
    def later_term_first(comments, lexicon) -> int:
        """How many comments hit two terms and match the later one first."""
        patterns = [corpus._whole_words([entry]) for entry in lexicon]
        count = 0
        for comment in comments:
            starts = [m.start() for m in (p.search(comment.text) for p in patterns) if m]
            count += len(starts) > 1 and min(starts) < starts[0]
        return count

    def test_ignorecase_folds_onto_ascii_only_from_the_screened_code_points(self):
        """The screen's premises, over every code point: IGNORECASE folds onto
        ASCII only from ASCII, K and ``_FOLD_TRAPS``; K lowercases to k; and
        only İ lowercases to more than one code point."""
        ascii_class = re.compile(r"[\x00-\x7f]", re.IGNORECASE)
        folding = {chr(c) for c in range(0x80, 0x110000) if ascii_class.match(chr(c))}
        assert folding == {"\u212a", *filter(corpus._FOLD_TRAPS.match, folding)} == set("İıſ\u212a")
        assert "\u212a".lower() == "k"
        assert [chr(c) for c in range(0x110000) if len(chr(c).lower()) != 1] == ["İ"]

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("you loſer", ["loser"]),
            ("İdiot.", ["idiot"]),
            ("SHUT UP now", ["shut up", "up"]),
            ("I write C++.", ["c++"]),
            ("idiots and xidiot", []),
            ("dumb_idiot9 c++x", ["dumb"]),
        ],
    )
    def test_terms_reported_in_lexicon_order(self, text, terms):
        hits = lexicon_flag([Comment(id="c", author="u", text=text)], FUZZ_LEXICON)
        assert [term for term, _ in hits.get("c", [])] == terms


# ---------------------------------------------------------------------------
# Dataset and lexicon-hit files

#: Characters every JSON string writer must get right: quotes,
#: backslashes, each control character, DEL, NBSP, the line and
#: paragraph separators, a BOM and non-BMP emoji.
AWKWARD = [
    '"', "\\", "/", *map(chr, range(0x20)), "\x7f", "\u00a0", "\u2028", "\u2029", "\ufeff",
    "😂", "\U0001FAE8",
]


def awkward_text(rng: random.Random) -> str:
    text = messy_text(rng)
    for _ in range(rng.randint(0, 4)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(AWKWARD) + text[at:]
    return text


def fuzz_dataset(n: int, seed: int) -> LabeledDataset:
    rng = random.Random(seed)
    ids = [f"c{i}{rng.choice(AWKWARD)}" if rng.random() < 0.2 else f"c{i}" for i in range(n)]
    return LabeledDataset(
        tuple((cid, awkward_text(rng), rng.choice([Label.OFFENSIVE, Label.NOT_OFFENSIVE])) for cid in ids)
    )


def reference_dataset_json(dataset: LabeledDataset) -> str:
    """The dataset file's text as ``json.dumps`` writes its JSON object."""
    entries = [
        {"id": cid, "text": text, "label": label.value} for cid, text, label in dataset.entries
    ]
    return json.dumps({"entries": entries}, ensure_ascii=False, indent=2)


class TestDatasetWriter:
    def test_fuzz_entries_match_json_dumps(self, tmp_path):
        dataset = fuzz_dataset(3000, 5)
        corpus.save_dataset(dataset, tmp_path / "d.json")
        text = (tmp_path / "d.json").read_bytes().decode("utf-8")
        assert text == reference_dataset_json(dataset)
        assert all(ch in text for ch in ("\\u0000", "\\u001f", "\\\"", "\\\\", "\u00a0", "😂"))
        assert corpus.load_dataset(tmp_path / "d.json") == dataset

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("provenance", [None, {}, "some", "all"])
    def test_small_and_empty_cases_match_json_dumps(self, tmp_path, n, provenance):
        """The file is ``json.dumps`` of the entries alone. A file of an
        earlier version, which also held a ``provenance`` object (empty,
        for some comments or for all), loads to the same dataset."""
        dataset = LabeledDataset(tuple((f"c{i}", f"text {i}", Label(i % 2)) for i in range(n)))
        corpus.save_dataset(dataset, tmp_path / "d.json")
        text = (tmp_path / "d.json").read_bytes().decode("utf-8")
        assert text == reference_dataset_json(dataset)
        if provenance is not None:
            if provenance == "some":
                provenance = {"c0": "p0"} if n else {}
            elif provenance == "all":
                provenance = {f"c{i}": f"p{i}" for i in range(n)}
            old = {**json.loads(text), "provenance": provenance}
            text = json.dumps(old, ensure_ascii=False, indent=2)
        assert corpus.dataset_from_json(text) == dataset

    def test_lone_surrogate_text_matches_json_dumps(self, tmp_path):
        """The text is what ``json.dumps`` returns, which UTF-8 cannot
        encode either: nothing is written."""
        dataset = LabeledDataset(
            entries=(("c1", "a\udc00", Label.OFFENSIVE), ("\ud800", "b", Label.NOT_OFFENSIVE))
        )
        assert "".join(corpus._dataset_chunks(dataset)) == reference_dataset_json(dataset)
        with pytest.raises(UnicodeEncodeError):
            corpus.save_dataset(dataset, tmp_path / "d.json")
        assert list(tmp_path.iterdir()) == []


def reference_hits_json(hits) -> str:
    """What ``ingest`` wrote when it passed the hits to ``json.dumps``."""
    obj = {cid: [[term, category.value] for term, category in found] for cid, found in hits.items()}
    return json.dumps(obj, indent=2, ensure_ascii=False)


class TestLexiconHitsWriter:
    def test_fuzz_hits_match_json_dumps(self, tmp_path):
        rng = random.Random(43)
        comments = [
            Comment(f"c{i}{rng.choice(AWKWARD)}", "u", spliced_text(rng) + rng.choice(AWKWARD))
            for i in range(3000)
        ]
        lexicon = FUZZ_LEXICON + [LexiconEntry('say "hi"', LexiconCategory.WATCHWORD)]
        hits = lexicon_flag(comments, lexicon)
        assert len(hits) > 1000 and any(len(found) > 1 for found in hits.values())
        corpus.save_lexicon_hits(hits, tmp_path / "hits.json")
        assert (tmp_path / "hits.json").read_bytes() == reference_hits_json(hits).encode("utf-8")

    @pytest.mark.parametrize(
        "hits",
        [
            {},
            {"c1": [("idiot", LexiconCategory.DEROGATORY)]},
            {
                "a\\\"\n😂": [('q"\\', LexiconCategory.WATCHWORD), ("up", LexiconCategory.WATCHWORD)],
                "b": [("x", LexiconCategory.THREATENING)],
            },
        ],
        ids=["empty", "one", "escapes"],
    )
    def test_small_cases_match_json_dumps(self, tmp_path, hits):
        corpus.save_lexicon_hits(hits, tmp_path / "hits.json")
        assert (tmp_path / "hits.json").read_bytes() == reference_hits_json(hits).encode("utf-8")


def entries_json(*entries) -> str:
    return json.dumps({"entries": list(entries)})


class TestDatasetLoader:
    @pytest.mark.parametrize(
        "value, label",
        [
            (0, Label.NOT_OFFENSIVE), (1, Label.OFFENSIVE), (0.0, Label.NOT_OFFENSIVE),
            (1.0, Label.OFFENSIVE), (-0.0, Label.NOT_OFFENSIVE),
        ],
    )
    def test_accepted_label_values(self, tmp_path, value, label):
        dataset = corpus.dataset_from_json(entries_json({"id": "a", "text": "t", "label": value}))
        assert dataset.entries == (("a", "t", label),)
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"a": value}), encoding="utf-8")
        assert corpus.load_labels(labels_path) == {"a": label}

    @pytest.mark.parametrize("value", [True, False, 2, -1, 0.5, "1", None, [], {}, [1]])
    def test_refused_label_values(self, tmp_path, value):
        with pytest.raises(SchemaViolationError) as info:
            corpus.dataset_from_json(entries_json({"id": "a", "text": "t", "label": value}))
        assert str(info.value) == "label must be 0 or 1 (at $.entries[0].label)"
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"a": 1, "b": value}), encoding="utf-8")
        with pytest.raises(SchemaViolationError) as info:
            corpus.load_labels(labels_path)
        assert str(info.value) == f"label for 'b' must be 0 or 1, got {value!r} (at {labels_path})"

    def test_nan_label_refused(self):
        with pytest.raises(SchemaViolationError, match="label must be 0 or 1"):
            corpus.dataset_from_json('{"entries": [{"id": "a", "text": "t", "label": NaN}]}')

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([], "entry must be an object (at $.entries[1])"),
            ("x", "entry must be an object (at $.entries[1])"),
            (None, "entry must be an object (at $.entries[1])"),
            ({"text": "t", "label": 0}, "missing 'id' (at $.entries[1])"),
            ({"id": "b", "label": 0}, "missing 'text' (at $.entries[1])"),
            ({"id": "b", "text": "t"}, "missing 'label' (at $.entries[1])"),
            ({"label": 7}, "missing 'id' (at $.entries[1])"),
            ({"id": "", "text": "t", "label": 0}, "id must be a non-empty string (at $.entries[1].id)"),
            ({"id": 5, "text": "t", "label": 9}, "id must be a non-empty string (at $.entries[1].id)"),
            ({"id": "b", "text": None, "label": 0}, "text must be a string (at $.entries[1].text)"),
            ({"id": "b", "text": [], "label": True}, "text must be a string (at $.entries[1].text)"),
            ({"id": "b", "text": "t", "label": [0]}, "label must be 0 or 1 (at $.entries[1].label)"),
        ],
    )
    def test_bad_entry_messages(self, entry, message):
        good = {"id": "a", "text": "t", "label": 1}
        with pytest.raises(SchemaViolationError) as info:
            corpus.dataset_from_json(entries_json(good, entry, good))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            ("[]", "dataset file must be an object with 'entries' (at $)"),
            ("{}", "dataset file must be an object with 'entries' (at $)"),
            ('{"entries": {}}', "entries must be an array (at $.entries)"),
        ],
    )
    def test_bad_file_messages(self, data, message):
        with pytest.raises(SchemaViolationError) as info:
            corpus.dataset_from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("provenance", [[1], {"a": "p", "b": 3}, {"a": "p"}, None, "x"])
    def test_an_old_provenance_key_is_ignored(self, provenance):
        """Earlier versions wrote each comment's post id under ``provenance``:
        whatever that key holds, the file loads to the same entries."""
        entries = [{"id": "a", "text": "t", "label": 1}, {"id": "b", "text": "u", "label": 0}]
        old = json.dumps({"entries": entries, "provenance": provenance})
        assert corpus.dataset_from_json(old) == corpus.dataset_from_json(entries_json(*entries))


class TestReadJsonText:
    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80"]
    )
    def test_undecodable_bytes_name_the_file(self, tmp_path, bad):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"a": "x' + bad + b'"}')
        with pytest.raises(MalformedJsonError, match=f"{path} is not UTF-8: .* at byte 8$"):
            read_json_text(path)

    @pytest.mark.parametrize(
        "escape",
        [
            "\\ud800", "\\udc00", "\\uDBFF", "\\uDfFf", "\\udc00\\ud800", "\\ud800x\\udc00",
            "\\\\\\ud800", "\\ud83d\\ud83d\\ude02",
        ],
    )
    def test_lone_surrogate_escape_names_the_file(self, tmp_path, escape):
        path = tmp_path / "in.json"
        path.write_text('{"a": ["ok \\ud83d\\ude02", "' + escape + '"]}', encoding="utf-8")
        with pytest.raises(MalformedJsonError, match=f"{path} has a lone surrogate escape"):
            read_json_text(path)

    @pytest.mark.parametrize(
        "content, escape, line, column",
        [
            ('"\\ud800"', "\\ud800", 1, 2),
            ('{\n  "a": "ok",\n  "b": "x\\udc00"\n}\n', "\\udc00", 3, 10),
            ('[\n"\\ud83d\\ude02",\r\n\t"\\uDBFF"]', "\\uDBFF", 3, 3),
        ],
    )
    def test_lone_surrogate_escape_gives_line_and_column(self, tmp_path, content, escape, line, column):
        """The line and column of a JSON syntax error at the escape."""
        path = tmp_path / "in.json"
        path.write_text(content, encoding="utf-8", newline="")
        with pytest.raises(MalformedJsonError, match=re.escape(f"{escape} at line {line} column {column}") + "$"):
            read_json_text(path)
        at = content.index(escape)
        with pytest.raises(json.JSONDecodeError) as syntax:  # an invalid escape in its place
            json.loads(content[:at] + "\\x" + content[at + 2:])
        assert (syntax.value.lineno, syntax.value.colno) == (line, column)

    @pytest.mark.parametrize(
        "text",
        [
            "\\ud83d\\ude02", "\\uD83D\\uDE02", "\\\\ud800", "\\\\\\\\udc00",
            "\\u00e9\\ud7ff\\ue000", "\\\\\\ud83d\\ude02",
        ],
    )
    def test_paired_and_escaped_backslash_text_is_kept(self, tmp_path, text):
        path = tmp_path / "in.json"
        content = '{"a": "' + text + '"}'
        path.write_text(content, encoding="utf-8")
        assert read_json_text(path) == content
        json.loads(content)["a"].encode("utf-8")  # what the file holds can be written
