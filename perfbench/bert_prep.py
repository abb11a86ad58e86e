"""BERT-side preprocessing workflow, the library path no CLI command takes.

Preprocesses every comment of a dataset in BERT-delimited emoji mode,
augments the base WordPiece vocabulary with every ``:emoji_alias:``
placeholder and the slang word list, measures the fragmentation rate
with the base and with the augmented vocabulary, and encodes every
comment with the augmented one. The summary is written as JSON:

    PYTHONPATH=src python3 perfbench/bert_prep.py --dataset balanced.json \\
        --slang slang.txt --out bert_prep.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from modkit import corpus, textprep, wordpiece


def run(dataset_path: str, slang_path: str, out_path: str) -> dict:
    dataset = corpus.load_dataset(dataset_path)
    config = textprep.PreprocessConfig(
        steps=textprep.ALL_STEPS, emoji_mode=textprep.EmojiMode.BERT_DELIMITED
    )
    texts = [
        " ".join(textprep.run_pipeline(text, config, source_id=cid).tokens)
        for cid, text, _label in dataset.entries
    ]
    aliases = sorted(set(textprep.default_emoji_aliases().values()))
    new_tokens = [f":{alias}:" for alias in aliases + [textprep.UNKNOWN_EMOJI_ALIAS]]
    new_tokens += Path(slang_path).read_text(encoding="utf-8").split()
    base = wordpiece.default_vocab()
    augmented = wordpiece.augment_vocab(base, new_tokens)
    before = wordpiece.fragmentation_rate(texts, base)
    after = wordpiece.fragmentation_rate(texts, augmented)
    encodings = [wordpiece.wordpiece_encode(text, augmented) for text in texts]
    summary = {
        "comments": len(texts),
        "words": sum(len(text.split()) for text in texts),
        "vocab_base": len(base),
        "vocab_augmented": len(augmented),
        "pieces_per_word_base": before.pieces_per_word,
        "pieces_per_word_aug": after.pieces_per_word,
        "split_word_fraction_base": before.split_word_fraction,
        "split_word_fraction_aug": after.split_word_fraction,
        "encodings": len(encodings),
        "framed": sum(
            e.tokens[0] == wordpiece.CLS and e.tokens[-1] == wordpiece.SEP for e in encodings
        ),
        "truncated": sum(e.truncated for e in encodings),
        "encoded_pieces": sum(len(e) for e in encodings),
    }
    Path(out_path).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--slang", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    summary = run(args.dataset, args.slang, args.out)
    print(
        f"{summary['comments']} comments, {summary['words']} words, pieces/word "
        f"{summary['pieces_per_word_base']:.4f} -> {summary['pieces_per_word_aug']:.4f}"
    )


if __name__ == "__main__":
    main()
