"""Byte-level tokenizer: ids 0-255 are raw UTF-8 bytes, 256 is EOS, 257 is PAD."""

EOS_ID = 256
PAD_ID = 257
VOCAB_SIZE = 258


def tokenize(text: str, max_seq_len: int = 512) -> list[int]:
    """Encode text as UTF-8 bytes truncated to max_seq_len - 1, then EOS."""
    data = text.encode("utf-8")[: max_seq_len - 1]
    return list(data) + [EOS_ID]
