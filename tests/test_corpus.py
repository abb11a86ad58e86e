"""Comment-tree parsing, labeling, balancing and splitting."""

from __future__ import annotations

import json
import random

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
    serialize_comment_tree,
    split,
)
from modkit.errors import (
    BadRatiosError,
    DuplicateIdError,
    EmptyClassError,
    MalformedJsonError,
    SchemaViolationError,
    UnknownCommentIdError,
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
        assert tree.node_count() == 1
        assert flatten(tree)[0].depth == 0

    def test_nested_reply_depth_and_order(self):
        tree = parse_comment_tree(
            '{"post_id":"p1","post_author":"a","comments":'
            '[{"id":"c1","author":"u1","text":"hi","replies":'
            '[{"id":"c2","author":"u2","text":"yo","replies":[]}]}]}'
        )
        assert tree.node_count() == 2
        comments = flatten(tree)
        assert [c.id for c in comments] == ["c1", "c2"]
        assert [c.depth for c in comments] == [0, 1]

    def test_top_level_array_rejected(self):
        with pytest.raises(SchemaViolationError):
            parse_comment_tree("[]")

    def test_malformed_json_reports_offset(self):
        with pytest.raises(MalformedJsonError) as excinfo:
            parse_comment_tree('{"post_id": ')
        assert excinfo.value.offset is not None

    def test_missing_text_names_path(self):
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_comment_tree(
                '{"post_id":"p","post_author":"a","comments":'
                '[{"id":"c1","author":"u","replies":[]}]}'
            )
        assert "comments[0]" in str(excinfo.value)

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateIdError):
            parse_comment_tree(
                '{"post_id":"p","post_author":"a","comments":'
                '[{"id":"c1","author":"u","text":"x","replies":[]},'
                '{"id":"c1","author":"u","text":"y","replies":[]}]}'
            )

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
        assert tree.node_count() == 300
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
    def test_parse_serialize_identity(self):
        rng = random.Random(42)
        for _ in range(50):
            obj = random_tree_obj(rng)
            tree = parse_comment_tree(json.dumps(obj, ensure_ascii=False))
            again = parse_comment_tree(serialize_comment_tree(tree))
            assert again == tree

    def test_flatten_matches_node_count_and_order(self):
        rng = random.Random(7)
        for _ in range(50):
            tree = parse_comment_tree(json.dumps(random_tree_obj(rng), ensure_ascii=False))
            comments = flatten(tree)
            assert len(comments) == tree.node_count()
            position = {c.id: i for i, c in enumerate(comments)}

            def check(node, parent_pos=None):
                if parent_pos is not None:
                    assert position[node.comment.id] > parent_pos
                for child in node.children:
                    check(child, position[node.comment.id])

            for root in tree.roots:
                check(root)


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
        with pytest.raises(UnknownCommentIdError):
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
        with pytest.raises(EmptyClassError):
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

    def test_bad_ratios(self):
        with pytest.raises(BadRatiosError):
            split(make_dataset(2, 2), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(BadRatiosError):
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
