"""Golden vectors of the seeded randomness: every balanced set and split
in the toolkit follows from these streams, so any change to them changes
which comments a seed selects. The values were recorded once from the
implementation and must not be regenerated to make a change pass."""

from __future__ import annotations

import pytest

from modkit import corpus
from modkit._rng import _splitmix64, shuffled
from modkit.errors import read_json_text

SPLITMIX64 = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC),
    1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B),
    2**64 - 1: (0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2),
}


@pytest.mark.parametrize("seed", SPLITMIX64)
def test_splitmix64_first_outputs(seed):
    draws = _splitmix64(seed)
    assert tuple(next(draws) for _ in range(4)) == SPLITMIX64[seed]


def test_shuffled_range():
    assert shuffled(range(20), 7) == [4, 1, 2, 15, 16, 18, 9, 6, 13, 3, 8, 5, 19, 12, 17, 10, 11, 0, 14, 7]


def test_balance_and_split_ids_on_fixture10(fixture10_paths):
    tree_path, labels_path = fixture10_paths
    tree = corpus.parse_comment_tree(read_json_text(tree_path))
    dataset, _ = corpus.apply_labels(
        corpus.dedupe(corpus.flatten(tree)), corpus.load_labels(labels_path)
    )
    assert (len(dataset), dataset.n_offensive) == (10, 6)
    balanced = corpus.balance(dataset, seed=7)
    assert balanced.ids() == ["c01", "c02", "c03", "c04", "c06", "c08", "c09", "c10"]
    train, validation, test = corpus.split(dataset, (0.8, 0.1, 0.1), seed=7)
    assert train.ids() == ["c01", "c02", "c03", "c04", "c05", "c06", "c09", "c10"]
    assert (validation.ids(), test.ids()) == (["c07"], ["c08"])
