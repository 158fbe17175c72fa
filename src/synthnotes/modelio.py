"""Versioned binary model container.

Layout (all integers little-endian):
  magic           4 bytes  b"PTLM"
  format version  u16      currently 1
  model kind      u8 length + ASCII tag ("unigram" | "bigram" | "lstm-lm")
  vocabulary      u32 token count, then per token u16 byte-length + UTF-8
  parameter block (kind-specific):
    unigram   u64 per-token counts, in vocabulary order
    bigram    u64 row count; per row u64 context id, u64 entries,
              then (u64 token id, u64 count) pairs
    lstm-lm   u32 JSON-config length + UTF-8 JSON, then u32 tensor count;
              per tensor u16 name length + name, u8 ndim, u32 dims,
              float64 little-endian values (C order). Tensor order is the
              fixed training order: emb, then per layer wx/wh/b, then the
              output bias (plus out_w before it when untied). Loading casts
              the tensors to the config's dtype; float32 survives the
              float64 round trip exactly.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .lm import BigramModel, LanguageModel, UnigramModel
from .neural import LstmLmConfig, LstmLmModel
from .neural.core import StackParams

MAGIC = b"PTLM"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    pass


def _pack_str(s: str, width: str = "H") -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(f"<{width}", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ModelFormatError("truncated model file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals if len(vals) > 1 else vals[0]

    def string(self, width: str = "H") -> str:
        return self.take(self.unpack(width)).decode("utf-8")


def _vocab_block(tokens) -> bytes:
    parts = [struct.pack("<I", len(tokens))]
    parts += [_pack_str(tok) for tok in tokens]
    return b"".join(parts)


def _tensor_block(params: StackParams) -> bytes:
    pairs = params.named_arrays()
    parts = [struct.pack("<I", len(pairs))]
    for name, arr in pairs:
        parts.append(_pack_str(name))
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def model_bytes(model: LanguageModel) -> bytes:
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    if isinstance(model, UnigramModel):
        parts.append(_pack_str("unigram", "B"))
        parts.append(_vocab_block(model.tokens))
        parts.append(np.ascontiguousarray(model.counts, dtype="<u8").tobytes())
    elif isinstance(model, BigramModel):
        parts.append(_pack_str("bigram", "B"))
        parts.append(_vocab_block(model.tokens))
        rows = sorted(model.rows.items())
        parts.append(struct.pack("<Q", len(rows)))
        for ctx, row in rows:
            entries = sorted(row.items())
            parts.append(struct.pack("<QQ", ctx, len(entries)))
            for tok, count in entries:
                parts.append(struct.pack("<QQ", tok, count))
    elif isinstance(model, LstmLmModel):
        parts.append(_pack_str("lstm-lm", "B"))
        parts.append(_vocab_block(model.tokens))
        config_json = json.dumps(dataclasses.asdict(model.config), sort_keys=True)
        parts.append(_pack_str(config_json, "I"))
        parts.append(_tensor_block(model.params))
    else:
        raise ModelFormatError(f"cannot serialize model type {type(model).__name__}")
    return b"".join(parts)


def save_model(model: LanguageModel, path: str | Path) -> None:
    Path(path).write_bytes(model_bytes(model))


def _read_tensors(r: _Reader, dtype) -> list[tuple[str, np.ndarray]]:
    count = r.unpack("I")
    tensors = []
    for _ in range(count):
        name = r.string()
        ndim = r.unpack("B")
        shape = r.unpack(f"{ndim}I")
        shape = shape if isinstance(shape, tuple) else (shape,)
        size = int(np.prod(shape))
        arr = np.frombuffer(r.take(size * 8), dtype="<f8").reshape(shape).astype(dtype)
        tensors.append((name, arr))
    return tensors


def load_model(path: str | Path) -> LanguageModel:
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != MAGIC:
        raise ModelFormatError(f"{path}: not a PTLM model file")
    version = r.unpack("H")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    kind = r.string("B")
    n_tokens = r.unpack("I")
    tokens = tuple(r.string() for _ in range(n_tokens))

    if kind == "unigram":
        return UnigramModel(tokens, np.frombuffer(r.take(n_tokens * 8), dtype="<u8"))
    if kind == "bigram":
        rows = {}
        for _ in range(r.unpack("Q")):
            ctx, n_entries = r.unpack("QQ")
            rows[ctx] = dict(r.unpack("QQ") for _ in range(n_entries))
        return BigramModel(tokens, rows)
    if kind == "lstm-lm":
        config = LstmLmConfig(**json.loads(r.string("I")))
        params = StackParams.from_named_arrays(_read_tensors(r, config.np_dtype))
        if params.tied != config.tied_embeddings:
            raise ModelFormatError(f"{path}: output tensor does not match the config")
        return LstmLmModel(tokens, config, params)
    raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
