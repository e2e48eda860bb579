import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umtk import rng
from umtk.corpus import (
    Corpus,
    build_term_doc,
    random_mirror,
    read_corpus_dir,
    read_corpus_file,
    tokenize,
)

from .conftest import traced_peak


def test_tokenize_frozen_examples():
    assert tokenize("Tyler's car, ROAD!") == ["tyler's", "car", "road"]
    assert tokenize("") == []
    assert tokenize("a b a") == ["a", "b", "a"]


def test_tokenize_apostrophe_rules():
    assert tokenize("don't") == ["don't"]
    assert tokenize("'tis") == ["tis"]
    assert tokenize("rock'") == ["rock"]
    assert tokenize("a''b") == ["a", "b"]


def test_tokenize_separators():
    assert tokenize("abc123def") == ["abc", "def"]
    assert tokenize("snake_case") == ["snake", "case"]
    assert tokenize("semi;colon\ttab\nnewline") == ["semi", "colon", "tab", "newline"]


def test_tokenize_keeps_accents():
    assert tokenize("Café naïve") == ["café", "naïve"]


@given(st.text(max_size=200))
def test_tokenize_idempotent(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate document ids: d1"):
        Corpus([("d1", "x"), ("d2", "y"), ("d1", "z")])


def test_read_corpus_dir(tmp_path):
    (tmp_path / "b.txt").write_text("second doc", encoding="utf-8")
    (tmp_path / "a.txt").write_text("first doc", encoding="utf-8")
    (tmp_path / "ignored.csv").write_text("not text", encoding="utf-8")
    corpus = read_corpus_dir(tmp_path)
    assert corpus.documents == [("a", "first doc"), ("b", "second doc")]


def test_read_corpus_dir_empty(tmp_path):
    with pytest.raises(ValueError, match="no .txt files"):
        read_corpus_dir(tmp_path)


def test_read_corpus_file(tmp_path):
    path = tmp_path / "all.txt"
    path.write_text(
        "preamble is ignored\n"
        "===DOC first===\n"
        "line one\n"
        "line two\n"
        "===DOC second===\n"
        "only line\n",
        encoding="utf-8",
    )
    corpus = read_corpus_file(path)
    assert corpus.documents == [
        ("first", "line one\nline two"),
        ("second", "only line"),
    ]


def test_read_corpus_file_requires_markers(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("no markers here", encoding="utf-8")
    with pytest.raises(ValueError, match="markers"):
        read_corpus_file(path)


def test_build_term_doc_frozen_example():
    corpus = Corpus([("d1", "a a b"), ("d2", "b c")])
    td = build_term_doc(corpus, top_k=2)
    assert td.vocabulary == ["a", "b"]  # a:2 and b:2 tie, alphabetical
    np.testing.assert_array_equal(td.matrix.values, [[2, 1], [0, 1]])
    assert td.matrix.row_labels == ["d1", "d2"]
    assert td.matrix.col_labels == ["a", "b"]
    assert td.dropped_docs == []


def test_build_term_doc_vocabulary_order():
    corpus = Corpus([("d", "b b a a c")])
    assert build_term_doc(corpus, top_k=2).vocabulary == ["a", "b"]
    assert build_term_doc(corpus, top_k=3).vocabulary == ["a", "b", "c"]


def test_build_term_doc_top_k_exceeds_vocabulary():
    corpus = Corpus([("d", "x y")])
    with pytest.warns(UserWarning, match="fewer than"):
        td = build_term_doc(corpus, top_k=10)
    assert td.vocabulary == ["x", "y"]


def test_build_term_doc_single_document():
    td = build_term_doc(Corpus([("only", "w w v")]), top_k=2)
    assert td.matrix.values.shape == (1, 2)
    np.testing.assert_array_equal(td.matrix.values, [[2, 1]])


def test_build_term_doc_drops_zero_documents():
    corpus = Corpus([("d1", "a a"), ("d2", "z z z")])
    with pytest.warns(UserWarning, match="dropped 1 all-zero documents: d1"):
        td = build_term_doc(corpus, top_k=1)
    assert td.vocabulary == ["z"]
    assert td.dropped_docs == ["d1"]
    assert td.matrix.row_labels == ["d2"]


def test_build_term_doc_column_sums_match_corpus_counts(rng_module=None):
    words = ["red", "green", "blue", "cyan", "plum"]
    gen = np.random.default_rng(7)
    docs = [
        (f"d{i}", " ".join(gen.choice(words, size=gen.integers(1, 30))))
        for i in range(8)
    ]
    corpus = Corpus(docs)
    td = build_term_doc(corpus, top_k=3)
    all_tokens = tokenize(" ".join(text for _, text in docs))
    for col, term in enumerate(td.vocabulary):
        assert td.matrix.values[:, col].sum() == all_tokens.count(term)


def test_build_term_doc_argument_validation():
    with pytest.raises(ValueError, match="top_k"):
        build_term_doc(Corpus([("d", "a")]), top_k=0)
    with pytest.raises(ValueError, match="empty"):
        build_term_doc(Corpus([]), top_k=1)
    with pytest.raises(ValueError, match="no tokens"):
        build_term_doc(Corpus([("d", "123 !!!")]), top_k=1)


def test_random_mirror_shape_labels_and_range():
    table = random_mirror(12, 7, seed=3)
    assert table.values.shape == (12, 7)
    assert table.row_labels[0] == "row01" and table.row_labels[-1] == "row12"
    assert table.col_labels == [f"col{j}" for j in range(1, 8)]
    assert np.all(table.values >= 0.0) and np.all(table.values < 1.0)


def test_random_mirror_matches_stream():
    table = random_mirror(3, 4, seed=9)
    expected = rng.uniform01(rng.stream(9, 0, 12)).reshape(3, 4)
    np.testing.assert_array_equal(table.values, expected)


def test_random_mirror_peak_is_within_two_and_a_half_tables():
    # the stream is mixed and scaled in place: the table plus one temporary
    table, peak = traced_peak(lambda: random_mirror(139, 2000, seed=1))
    assert peak <= 2.5 * table.values.nbytes


def test_random_mirror_deterministic():
    a = random_mirror(5, 6, seed=42)
    b = random_mirror(5, 6, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    c = random_mirror(5, 6, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_random_mirror_minimum_size():
    with pytest.raises(ValueError, match="at least 2"):
        random_mirror(1, 5, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        random_mirror(5, 1, seed=0)
