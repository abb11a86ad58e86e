"""TF-IDF fitting, transformation and the CSR feature matrix."""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from modkit.errors import ModkitError, SchemaViolationError
from modkit.textprep import TokenStream
from modkit.vectorize import (
    CSRMatrix, TfidfModel, fit, fit_transform, load_tfidf, rows, save_tfidf, transform_all,
)

from _oracles import oracle_tfidf_fit
from _sparse import csr, dense, entries, row_lists


def stream(*tokens: str) -> TokenStream:
    return TokenStream(tuple(tokens))


CORPUS = [stream("a", "b"), stream("a", "c")]


class TestFit:
    def test_smoothed_idf_values(self):
        model = fit(CORPUS)
        assert model.idf[model.vocabulary["a"]] == pytest.approx(1.0)
        assert model.idf[model.vocabulary["b"]] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)

    def test_term_in_every_doc_has_idf_one(self):
        model = fit([stream("x", "y"), stream("x"), stream("x", "z")])
        assert model.idf[model.vocabulary["x"]] == 1.0

    def test_single_doc_corpus_all_ones(self):
        model = fit([stream("p", "q", "r")])
        assert all(value == 1.0 for value in model.idf)

    def test_empty_corpus(self):
        with pytest.raises(ModkitError, match="^cannot fit TF-IDF on an empty corpus$"):
            fit([])

    def test_vocabulary_first_seen_order(self):
        model = fit([stream("b", "a"), stream("c", "a")])
        assert model.vocabulary == {"b": 0, "a": 1, "c": 2}

    def test_idf_at_least_one(self):
        rng = random.Random(17)
        corpus = [
            stream(*(rng.choice("abcdef") for _ in range(rng.randint(1, 10))))
            for _ in range(30)
        ]
        model = fit(corpus)
        assert all(value >= 1.0 for value in model.idf)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_token_loop(self, seed):
        """Vocabulary order, idf bytes and doc_count equal a plain loop's,
        over streams that are empty, repeat tokens or hold only tokens no
        other stream holds, and over corpora with no tokens at all."""
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(1, 30))]
        corpus = [
            stream(*(rng.choice(words) for _ in range(rng.randint(0, 20))))
            for _ in range(rng.randint(1, 50))
        ]
        corpus += [stream(), stream("x", "x", "x"), stream("only", "only", "once")]
        rng.shuffle(corpus)
        no_tokens = [stream()] * rng.randint(1, 9)
        plain = [tuple(doc) for doc in corpus]  # any token tuples, not only streams
        for docs in (corpus, corpus[: rng.randint(1, 5)], no_tokens, plain):
            model = fit(docs)
            vocabulary, idf, n = oracle_tfidf_fit(docs)
            assert list(model.vocabulary) == vocabulary
            assert list(model.vocabulary.values()) == list(range(len(vocabulary)))
            assert all(type(value) is float for value in model.idf)
            assert np.array(model.idf).tobytes() == np.array(idf, dtype=np.float64).tobytes()
            assert model.doc_count == n == len(docs)

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_is_fit_transforms_model(self, seed):
        """The plain-Python ``fit`` and numpy ``fit_transform`` learn the
        same vocabulary, in the same order, and the same idf bits, over
        corpora with empty streams and repeated tokens."""
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(1, 40))]
        corpus = [
            tuple(rng.choice(words) for _ in range(rng.choice([0, 0, 1, 3, 12, 40])))
            for _ in range(rng.randint(1, 60))
        ]
        for docs in (corpus, [*corpus, ("x",) * 5, ()], [()] * rng.randint(1, 4)):
            got, (expected, _) = fit(docs), fit_transform(docs)
            assert list(got.vocabulary.items()) == list(expected.vocabulary.items())
            assert [value.hex() for value in got.idf] == [value.hex() for value in expected.idf]
            assert got.doc_count == expected.doc_count
        with pytest.raises(ModkitError, match="^cannot fit TF-IDF on an empty corpus$"):
            fit_transform([])


def per_document_transform(model, corpus) -> CSRMatrix:
    """Reference rows, one document at a time: counts times idf in column
    order, divided by the square root of that row's squares added one at
    a time in column order."""
    indptr, indices, data = [0], [], []
    for doc in corpus:
        counts = Counter(model.vocabulary[t] for t in doc.tokens if t in model.vocabulary)
        if counts:
            columns = sorted(counts)
            weights = np.array([counts[i] * model.idf[i] for i in columns])
            squares = 0.0
            for weight in weights.tolist():
                squares += weight * weight
            weights /= math.sqrt(squares)
            indices.extend(columns)
            data.append(weights)
        indptr.append(len(indices))
    return CSRMatrix(
        indptr=np.array(indptr),
        indices=np.array(indices, dtype=np.intp),
        data=np.concatenate(data) if data else np.zeros(0),
        n_cols=model.vocab_size,
    )


def transform_one(model, doc: TokenStream) -> list[tuple[int, float]]:
    return entries(transform_all(model, [doc]), 0)


class TestTransform:
    def test_weights_match_hand_arithmetic(self):
        model = fit(CORPUS)
        vector = transform_one(model, stream("a", "b"))
        idf_b = math.log(3 / 2) + 1
        norm = math.sqrt(1.0 + idf_b**2)
        expected = {
            model.vocabulary["a"]: 1.0 / norm,
            model.vocabulary["b"]: idf_b / norm,
        }
        assert dict(vector) == pytest.approx(expected, abs=1e-12)
        # frozen from the formula: 1/1.7249219 and 1.4054651/1.7249219
        assert vector[0][1] == pytest.approx(0.57974, abs=5e-6)
        assert vector[1][1] == pytest.approx(0.81480, abs=5e-6)

    def test_only_oov_gives_empty_vector(self):
        model = fit(CORPUS)
        X = transform_all(model, [stream("a"), stream("zzz", "qqq"), stream("b")])
        assert entries(X, 1) == []
        assert X.indptr.tolist() == [0, 1, 1, 2]

    def test_repeated_token_normalizes_to_one(self):
        model = fit([stream("a")])
        assert transform_one(model, stream("a", "a")) == [(0, 1.0)]

    def test_unit_norm(self):
        rng = random.Random(23)
        corpus = [
            stream(*(rng.choice("abcdefgh") for _ in range(rng.randint(1, 12))))
            for _ in range(40)
        ]
        model = fit(corpus)
        X = transform_all(model, corpus)
        for row in range(len(X)):
            vector = entries(X, row)
            if vector:
                assert abs(math.sqrt(sum(w * w for _, w in vector)) - 1.0) < 1e-9

    def test_token_order_invariant(self):
        model = fit(CORPUS)
        tokens = ["a", "b", "a", "c"]
        forward = transform_one(model, stream(*tokens))
        backward = transform_one(model, stream(*reversed(tokens)))
        assert forward == backward

    def test_support_within_vocabulary(self):
        model = fit(CORPUS)
        X = transform_all(model, CORPUS)
        assert X.n_cols == model.vocab_size
        assert all(0 <= index < model.vocab_size for index in X.indices)
        for row in range(len(X)):
            columns = [index for index, _ in entries(X, row)]
            assert columns == sorted(set(columns))

    def test_doubling_tokens_changes_nothing(self):
        model = fit(CORPUS)
        for doc in CORPUS:
            once = transform_one(model, doc)
            doubled = transform_one(model, stream(*(doc.tokens + doc.tokens)))
            for (i1, w1), (i2, w2) in zip(once, doubled):
                assert i1 == i2
                assert abs(w1 - w2) < 1e-9

    def test_rows_match_per_document_loop(self):
        """indptr, indices and data equal, byte for byte, the arrays of a
        per-document loop, over streams that are empty, hold only
        out-of-vocabulary tokens, repeat tokens or hold more distinct
        tokens than a BLAS ``ddot`` sums in one unrolled block."""
        words = "abcdefghijklmnopqrstuvwxyz"
        for seed in (29, 30, 31):
            rng = random.Random(seed)
            corpus = [
                stream(*(rng.choice(words) for _ in range(rng.randint(0, 40)))) for _ in range(60)
            ]
            corpus += [stream(), stream("OOV", "zzz"), stream("a", "a", "a"), stream(*words)]
            rng.shuffle(corpus)
            model = fit(corpus[:40])
            X, expected = transform_all(model, corpus), per_document_transform(model, corpus)
            assert X.n_cols == model.vocab_size
            for name in ("indptr", "indices", "data"):
                got, want = getattr(X, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, name)

    def test_empty_vocabulary_gives_empty_rows(self):
        model = fit([stream(), stream()])
        X = transform_all(model, [stream("a"), stream()])
        assert X.n_cols == 0 and X.indptr.tolist() == [0, 0, 0] and len(X.data) == 0

    def test_empty_corpus_gives_no_rows(self):
        X = transform_all(fit(CORPUS), [])
        assert len(X) == 0 and X.n_cols == 3
        assert (X @ np.ones(3)).shape == (0,)
        assert (np.ones(0) @ X).tolist() == [0.0, 0.0, 0.0]


class TestRows:
    def test_rows_are_the_matrix_rows(self):
        model = fit(CORPUS)
        corpus = [stream("a", "b", "a"), stream(), stream("zzz"), stream("c")]
        assert list(rows(model, corpus)) == row_lists(transform_all(model, corpus))
        assert list(rows(model, [stream("zzz")])) == [([], [])]

    def test_each_row_is_built_as_its_stream_is_read(self):
        def streams():
            yield stream("a", "b")
            pytest.fail("the second stream was read")

        model = fit(CORPUS)
        assert next(rows(model, streams())) == row_lists(transform_all(model, CORPUS[:1]))[0]

    def test_row_without_a_norm_raises(self):
        """No fit gives such idf values: only a damaged tfidf.json can."""
        model = TfidfModel(vocabulary={"a": 0, "b": 1}, idf=[5e-324, 1.0], doc_count=1)
        assert list(rows(model, [stream("b", "b"), stream()])) == [([1], [1.0]), ([], [])]
        with pytest.raises(ModkitError, match="row 1 has no norm"):
            list(rows(model, [stream("b"), stream("a", "a")]))


def random_csr(rng: random.Random, n_rows: int, n_cols: int):
    rows = [
        {c: rng.uniform(-2.0, 2.0) for c in range(n_cols) if rng.random() < 0.3}
        for _ in range(n_rows)
    ]
    return csr(rows, n_cols)


class TestCSRMatrix:
    def test_products_match_dense_within_1e_12(self):
        rng = random.Random(31)
        np_rng = np.random.default_rng(31)
        for _ in range(50):
            n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 40)
            X = random_csr(rng, n_rows, n_cols)
            D = dense(X)
            v, r = np_rng.normal(size=n_cols), np_rng.normal(size=n_rows)
            for got, want in ((X @ v, D @ v), (r @ X, r @ D)):
                scale = np.abs(D).sum() * max(np.abs(v).max(), np.abs(r).max())
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-12 * max(scale, 1.0))

    def test_products_follow_storage_order_exactly(self):
        """X @ v and r @ X add the stored entries one at a time, in order."""
        rng = random.Random(37)
        X = random_csr(rng, 25, 30)
        v = np.array([rng.uniform(-1, 1) for _ in range(30)])
        r = np.array([rng.uniform(-1, 1) for _ in range(25)])
        Xv, rX = np.zeros(25), np.zeros(30)
        for row in range(25):
            for column, weight in entries(X, row):
                Xv[row] += weight * v[column]
                rX[column] += weight * r[row]
        assert (X @ v).tolist() == Xv.tolist()
        assert (r @ X).tolist() == rX.tolist()

    def test_block_diagonal_places_each_block_after_the_last(self):
        rng = random.Random(41)
        blocks = [random_csr(rng, 4, 3), csr([{}, {1: 2.0}], 5), random_csr(rng, 3, 1)]
        X = CSRMatrix.block_diagonal(blocks)
        expected = np.zeros((9, 9))
        expected[0:4, 0:3], expected[4:6, 3:8], expected[6:9, 8:9] = map(dense, blocks)
        assert (len(X), X.n_cols) == (9, 9)
        assert dense(X).tolist() == expected.tolist()
        assert X.data.tolist() == [v for block in blocks for v in block.data.tolist()]

    def test_empty_rows_and_columns(self):
        X = csr([{}, {2: 1.5}, {}], 4)
        assert (X @ np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [0.0, 4.5, 0.0]
        assert (np.array([1.0, 2.0, 3.0]) @ X).tolist() == [0.0, 0.0, 3.0, 0.0]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = fit(CORPUS)
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        loaded = load_tfidf(path)
        assert loaded.vocabulary == model.vocabulary
        assert loaded.doc_count == model.doc_count
        assert loaded.idf == model.idf
        original = transform_one(model, stream("a", "b"))
        assert transform_one(loaded, stream("a", "b")) == original

    @pytest.mark.parametrize("seed", range(5))
    def test_file_is_json_dumps_text(self, tmp_path, seed):
        """The file is the text of ``json.dumps(obj, ensure_ascii=False)``
        byte for byte, for terms with quotes, backslashes, control and
        non-BMP characters and for an empty vocabulary, and it loads back
        unchanged."""
        rng = random.Random(seed)
        pool = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\xa0", "é", "😂", "𝕏", "a", " "]
        n_terms = rng.randint(1, 40) if seed else 0
        terms = {"".join(rng.choices(pool, k=rng.randint(1, 6))) for _ in range(n_terms)}
        idf = [rng.choice([1.0, 5e-324, 1e-300, 1.7976931348623157e308, -0.0])
               if rng.random() < 0.2 else rng.uniform(1, 12) for _ in terms]
        model = TfidfModel(
            vocabulary={term: i for i, term in enumerate(terms)},
            idf=idf,
            doc_count=rng.randint(1, 10**6),
        )
        obj = {"doc_count": model.doc_count, "terms": list(terms), "idf": idf}
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        assert path.read_bytes() == json.dumps(obj, ensure_ascii=False).encode("utf-8")
        loaded = load_tfidf(path)
        assert loaded.vocabulary == model.vocabulary and loaded.doc_count == model.doc_count
        assert np.array(loaded.idf).tobytes() == np.array(model.idf).tobytes()

    def test_terms_are_written_in_column_order(self, tmp_path):
        model = TfidfModel(vocabulary={"b": 1, "a": 0}, idf=[1.5, 2.5], doc_count=3)
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        assert json.loads(path.read_text(encoding="utf-8"))["terms"] == ["a", "b"]
        assert load_tfidf(path).vocabulary == {"a": 0, "b": 1}

    @pytest.mark.parametrize(
        "obj",
        [
            {"doc_count": 2.0, "terms": ["a", "b"], "idf": [1.0, 2.0]},
            {"doc_count": 2, "terms": "ab", "idf": [1.0, 2.0]},
            {"doc_count": 2, "terms": ["a", "b"], "idf": {"a": 1.0, "b": 2.0}},
            {"doc_count": 2, "terms": [{"term": "a", "index": 0, "idf": 1.0}]},
        ],
        ids=["doc_count_not_int", "terms_not_list", "idf_not_list", "term_objects"],
    )
    def test_malformed_file_is_schema_violation(self, tmp_path, obj):
        """Damage not covered by the run-directory tests of ``eval``; the
        last is the format that had one object per term."""
        path = tmp_path / "tfidf.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(SchemaViolationError):
            load_tfidf(path)
