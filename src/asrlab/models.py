"""The two recognizer architectures and their checkpoint format.

CtcModel: stacked LSTMs followed by a final dense projection onto the
subword vocabulary plus a trailing blank. LasModel: transformer encoder
over features, autoregressive transformer decoder over subword ids with
BOS/EOS appended after the subword table.

``tensor_shapes`` is the one list of a model's tensor names and shapes.
Names follow "submodule.index.param" (e.g. "lstm.0.w",
"decoder.1.cross_attn.wq.w"); freeze policies and checkpoints key off
them. Feature mean/variance stats ride along as non-trainable buffers
under "norm.*". A model is built from a {name: array} dict, drawn by
``init_tensors`` or read from a checkpoint, and its layers hold those
arrays as they are given.

Each layer call records one tape node (``layers``). Beam search runs
``IncrementalDecoder``, which calls the array code of the same layer
objects and holds no layer math of its own.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .atomic import atomic_write
from .config import CtcConfig, LasConfig, model_config_from_dict
from .errors import DataError, NumericError, ShapeError, UsageError
from .layers import (NEG_FILL, Dense, DecoderBlock, EncoderBlock, Embedding, LayerNorm, LstmLayer,
                     causal_mask, key_padding_mask, positional_encoding)
from .tensor import Tensor

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1


class _ModelBase:
    def __init__(self, cfg, tensors: dict[str, np.ndarray]):
        """Holds the arrays of tensors, a name -> array dict of every name in
        tensor_shapes(cfg), without copying them."""
        self.cfg = cfg
        self.params = {name: Tensor(tensors[name], requires_grad=True)
                       for name in tensor_shapes(cfg) if not name.startswith("norm.")}
        self.norm_mean, self.norm_std = tensors["norm.mean"], tensors["norm.std"]

    def set_normalizer(self, mean: np.ndarray, std: np.ndarray) -> None:
        if mean.shape != (self.cfg.feat_dim,) or std.shape != (self.cfg.feat_dim,):
            raise ShapeError(f"normalizer dims {mean.shape} do not match feat_dim {self.cfg.feat_dim}")
        self.norm_mean = mean.astype(np.float32)
        self.norm_std = std.astype(np.float32)

    def normalize(self, feats: np.ndarray) -> np.ndarray:
        if feats.shape[-1] != self.cfg.feat_dim:
            raise ShapeError(f"feature dim {feats.shape[-1]} does not match config {self.cfg.feat_dim}")
        return ((feats - self.norm_mean) / self.norm_std).astype(np.float32)

    def parameter_groups(self) -> dict[str, list[str]]:
        names = list(self.parameters())
        return {"dense": [n for n in names if n.startswith("dense.")], "all": names}

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def buffers(self) -> dict[str, np.ndarray]:
        return {"norm.mean": self.norm_mean, "norm.std": self.norm_std}

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {name: p.data for name, p in self.parameters().items()}
        out.update(self.buffers())
        return out

    def set_trainable(self, names) -> None:
        """requires_grad only for the given parameter names."""
        names = set(names)
        params = self.parameters()
        unknown = names - set(params)
        if unknown:
            raise UsageError(f"unknown parameter names: {sorted(unknown)}")
        for name, p in params.items():
            p.requires_grad = name in names


class CtcModel(_ModelBase):
    def __init__(self, cfg: CtcConfig, tensors: dict[str, np.ndarray]):
        super().__init__(cfg, tensors)
        self.lstms = [LstmLayer(self.params, f"lstm.{i}") for i in range(cfg.layers)]
        self.dense = Dense(self.params, "dense")

    @property
    def blank_id(self) -> int:
        return self.cfg.vocab

    def top_lstm_names(self, k: int) -> list[str]:
        """Names of the k (at most cfg.layers) LSTM layers nearest the output."""
        top = tuple(f"lstm.{i}." for i in range(self.cfg.layers - k, self.cfg.layers))
        return [n for n in self.params if n.startswith(top)]

    def encode(self, feats: np.ndarray) -> Tensor:
        """Padded features [T,B,D] -> the top LSTM's hidden states [T,B,hidden]."""
        x = Tensor(self.normalize(feats))
        for layer in self.lstms:
            x = layer.forward(x)
        return x

    def log_probs(self, enc: Tensor) -> Tensor:
        """Encoder output [T,B,hidden] -> log-probs [T,B,V+1] (dense, log-softmax)."""
        return T.log_softmax(self.dense(enc), axis=-1)

    def forward(self, feats: np.ndarray) -> Tensor:
        """Padded features [T,B,D] -> log-probs Tensor [T,B,V+1]."""
        return self.log_probs(self.encode(feats))

    def log_probs_single(self, feats: np.ndarray) -> np.ndarray:
        """Inference path for one utterance [T,D] -> [T,V+1] (no tape)."""
        return self.forward(feats[:, None, :]).data[:, 0]


class LasModel(_ModelBase):
    def __init__(self, cfg: LasConfig, tensors: dict[str, np.ndarray]):
        super().__init__(cfg, tensors)
        p = self.params
        self.input_proj = Dense(p, "input_proj")
        self.encoder = [EncoderBlock(p, f"encoder.{i}", cfg.heads) for i in range(cfg.enc_blocks)]
        self.enc_norm = LayerNorm(p, "enc_norm")
        self.embed = Embedding(p, "embed")
        self.decoder = [DecoderBlock(p, f"decoder.{i}", cfg.heads) for i in range(cfg.dec_blocks)]
        self.dec_norm = LayerNorm(p, "dec_norm")
        self.dense = Dense(p, "dense")
        self._pe = positional_encoding(512, cfg.dim)
        # sqrt(dim) keeps projected features and embeddings comparable to the position signal
        self.content_scale = float(np.sqrt(cfg.dim))

    @property
    def bos_id(self) -> int:
        return self.cfg.vocab

    @property
    def eos_id(self) -> int:
        return self.cfg.vocab + 1

    def parameter_groups(self) -> dict[str, list[str]]:
        groups = super().parameter_groups()
        groups["decoder"] = [n for n in groups["all"]
                             if n.startswith(("decoder.", "dec_norm.", "embed.", "dense."))]
        return groups

    def _pe_slice(self, length: int) -> np.ndarray:
        if length > self._pe.shape[0]:
            self._pe = positional_encoding(2 * length, self.cfg.dim)
        return self._pe[:length]

    def encode(self, feats: np.ndarray, lengths: np.ndarray | None = None):
        """Features [T,B,D] -> (memory [B,Tenc,dim], key-padding mask)."""
        t_len, batch, _ = feats.shape
        if lengths is None:
            lengths = np.full(batch, t_len, dtype=np.int64)
        x = self.normalize(feats).transpose(1, 0, 2)  # [B,T,D]
        h = self.input_proj(Tensor(np.ascontiguousarray(x)))
        h = T.mul(h, self.content_scale)
        pe = np.broadcast_to(self._pe_slice(t_len)[None], (batch, t_len, self.cfg.dim))
        h = T.add(h, Tensor(np.ascontiguousarray(pe)))
        pad = key_padding_mask(lengths, t_len)
        for block in self.encoder:
            h = block(h, pad)
        return self.enc_norm(h), pad

    def _embed(self, ids: np.ndarray) -> Tensor:
        """Scaled embeddings of ids [B, L] plus the encodings of positions 0..L-1."""
        batch, length = ids.shape
        y = T.mul(self.embed(ids), self.content_scale)
        pe = np.broadcast_to(self._pe_slice(length)[None], (batch, length, self.cfg.dim))
        return T.add(y, Tensor(np.ascontiguousarray(pe)))

    def decode_logits(self, memory: Tensor, mem_mask: np.ndarray, prefix: np.ndarray) -> Tensor:
        """Teacher-forced decoder logits [B, L, V'] for prefix ids [B, L], each
        beginning with BOS."""
        prefix = np.asarray(prefix, dtype=np.int64)
        if np.any(prefix[:, 0] != self.bos_id):
            raise DataError("decoder prefix must begin with BOS")
        y = self._embed(prefix)
        causal = causal_mask(prefix.shape[1])
        for block in self.decoder:
            y = block(y, memory, causal, mem_mask)
        return self.dense(self.dec_norm(y))

    def start_decoding(self, memory: Tensor, mem_mask: np.ndarray | None = None) -> IncrementalDecoder:
        """Incremental decoder state for one utterance's memory [1, Tenc, dim]."""
        return IncrementalDecoder(self, memory, mem_mask)


class IncrementalDecoder:
    """Decodes one new position per step on plain arrays, off the tape.

    A step runs the model's own layers through their array code on the
    newest position of each row, so no Tensor is made and nothing is
    recorded, even inside a live Tape. This class keeps only what is
    incremental: the memory's cross-attention keys and values, projected
    once per block; the self-attention keys and values of the earlier
    positions, [rows*heads, L, head_dim] per block, reordered at each step
    by the rows' parent rows so that the logits match
    ``LasModel.decode_logits`` on the full prefixes; the position counter;
    and the additive fill of the memory's padded frames.
    """

    def __init__(self, model: LasModel, memory: Tensor, mem_mask: np.ndarray | None):
        if memory.ndim != 3 or memory.shape[0] != 1:
            raise ShapeError(f"incremental decoding wants the memory of one utterance, got {memory.shape}")
        t_enc = memory.shape[1]
        self.model = model
        # a mask that hides no memory frame would only add zeros to the scores at every step
        self.fill = None
        if mem_mask is not None and mem_mask.any():
            if mem_mask.size != t_enc or mem_mask.shape[-1] != t_enc:
                raise ShapeError(f"memory mask shape {mem_mask.shape} does not match {t_enc} memory frames")
            self.fill = np.where(mem_mask.reshape(t_enc), NEG_FILL, 0.0).astype(memory.dtype)
        self.cross_kv = [(b.cross_attn.split(b.cross_attn.wk.apply(memory.data)),
                         b.cross_attn.split(b.cross_attn.wv.apply(memory.data))) for b in model.decoder]
        self.past = [(k[:, :0], v[:, :0]) for k, v in self.cross_kv]  # no earlier position yet
        self.pos = 0

    def step(self, rows, tokens) -> np.ndarray:
        """Logits [n, V'] for the next position of n rows.

        Row i extends row rows[i] of the previous step by token tokens[i];
        the first step has the one row 0, extended by BOS.
        """
        rows = np.asarray(rows, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64)
        model, heads = self.model, self.model.cfg.heads
        n = len(tokens)
        cache_rows = (rows[:, None] * heads + np.arange(heads)).ravel()
        y = model.embed.apply(tokens[:, None]) * model.content_scale + model._pe_slice(self.pos + 1)[self.pos]
        for i, block in enumerate(model.decoder):
            attn = block.self_attn
            h = block.ln1.apply(y)  # [n, 1, dim]
            qh, kh, vh = (attn.split(proj.apply(h)) for proj in (attn.wq, attn.wk, attn.wv))
            past_k, past_v = self.past[i]
            kh = np.concatenate([past_k[cache_rows], kh], axis=1)
            vh = np.concatenate([past_v[cache_rows], vh], axis=1)
            self.past[i] = (kh, vh)
            y = y + attn.wo.apply(attn.merge(attn.weights(qh, kh) @ vh))
            # the n rows share one memory, so they go in as n queries of a single batch entry
            attn, (mem_k, mem_v) = block.cross_attn, self.cross_kv[i]
            qm = attn.split(attn.wq.apply(block.ln2.apply(y)).reshape(1, n, -1))
            y = y + attn.wo.apply(attn.merge(attn.weights(qm, mem_k, self.fill) @ mem_v)).reshape(n, 1, -1)
            y = y + block.ff.apply(block.ln3.apply(y))
        self.pos += 1
        return model.dense.apply(model.dec_norm.apply(y))[:, 0]


def _model(cfg, tensors: dict[str, np.ndarray]):
    return (CtcModel if cfg.kind == "ctc" else LasModel)(cfg, tensors)


def build_model(cfg, seed: int = 0):
    """A freshly initialized model: init_tensors(cfg, seed)."""
    return _model(cfg, init_tensors(cfg, seed))


def tensor_shapes(cfg) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of the model a config builds, in
    ``named_tensors`` order (the order checkpoints store them in)."""
    shapes = {}

    def dense(name, d_in, d_out):
        shapes.update({f"{name}.w": (d_in, d_out), f"{name}.b": (d_out,)})

    def norm(name, dim):
        shapes.update({f"{name}.gamma": (dim,), f"{name}.beta": (dim,)})

    if isinstance(cfg, CtcConfig):
        for i in range(cfg.layers):
            d_in = cfg.feat_dim if i == 0 else cfg.hidden
            shapes.update({f"lstm.{i}.w": (d_in, 4 * cfg.hidden), f"lstm.{i}.u": (cfg.hidden, 4 * cfg.hidden),
                           f"lstm.{i}.b": (4 * cfg.hidden,)})
        dense("dense", cfg.hidden, cfg.output_dim)
    elif isinstance(cfg, LasConfig):
        dim = cfg.dim

        def block(name, attns, norms):
            for attn in attns:
                for proj in ("wq", "wk", "wv", "wo"):
                    dense(f"{name}.{attn}.{proj}", dim, dim)
            dense(f"{name}.ff.lin1", dim, cfg.ff_dim)
            dense(f"{name}.ff.lin2", cfg.ff_dim, dim)
            for ln in norms:
                norm(f"{name}.{ln}", dim)

        dense("input_proj", cfg.feat_dim, dim)
        for i in range(cfg.enc_blocks):
            block(f"encoder.{i}", ("attn",), ("ln1", "ln2"))
        norm("enc_norm", dim)
        shapes["embed.table"] = (cfg.output_dim, dim)
        for i in range(cfg.dec_blocks):
            block(f"decoder.{i}", ("self_attn", "cross_attn"), ("ln1", "ln2", "ln3"))
        norm("dec_norm", dim)
        dense("dense", dim, cfg.output_dim)
    else:
        raise UsageError(f"unknown config type {type(cfg)!r}")
    shapes["norm.mean"] = shapes["norm.std"] = (cfg.feat_dim,)
    return shapes


def initial_values(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator):
    """(name, float64 array) of each entry of shapes, in order, drawn from rng.

    Weights ("*.w", "*.u", "embed.table") are uniform in ±1/sqrt(fan_in),
    fan_in being the first dim (the second for the embedding table). Norm
    scales ("*.gamma", "norm.std") are one and the rest zero, except the
    forget-gate quarter [H:2H] of an LSTM bias, which is one.
    """
    for name, shape in shapes.items():
        if name.endswith((".w", ".u", "embed.table")):
            bound = 1.0 / np.sqrt(shape[1] if name.endswith("table") else shape[0])
            yield name, rng.uniform(-bound, bound, size=shape)
        elif name.endswith((".gamma", "norm.std")):
            yield name, np.ones(shape)
        else:
            arr = np.zeros(shape)
            if name.startswith("lstm.") and name.endswith(".b"):
                hidden = shape[0] // 4
                arr[hidden:2 * hidden] = 1.0
            yield name, arr


def init_tensors(cfg, seed: int = 0) -> dict[str, np.ndarray]:
    """Float32 initial values of every tensor of tensor_shapes(cfg), drawn
    in that order from one default_rng(seed)."""
    return {name: arr.astype(np.float32)
            for name, arr in initial_values(tensor_shapes(cfg), np.random.default_rng(seed))}


# -- checkpoints ---------------------------------------------------------------
# layout: magic, u32 version, u32 header_len, header json,
#         concatenated NDT1 tensor blocks, index json, u64 index offset

class Checkpoint:
    def __init__(self, config, tensors: dict[str, np.ndarray], step: int = 0,
                 rng_state: dict | None = None):
        self.config = config
        self.tensors = tensors
        self.step = step
        self.rng_state = rng_state

    def build_model(self):
        """A model holding copies of the tensors: training updates a model's
        arrays in place, and the checkpoint's stay as they were read."""
        return _model(self.config, {name: arr.copy() for name, arr in self.tensors.items()})


def save_checkpoint(path, model, step: int = 0, rng_state: dict | None = None) -> None:
    header = {
        "version": CKPT_VERSION,
        "model": asdict(model.cfg),
        "step": step,
        "rng_state": rng_state,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    tensors = model.named_tensors()
    with atomic_write(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        index = {}
        for name, arr in tensors.items():
            index[name] = fh.tell()
            T.write_array(fh, arr)
        index_bytes = json.dumps(index, sort_keys=True).encode()
        index_pos = fh.tell()
        fh.write(index_bytes)
        fh.write(struct.pack("<Q", index_pos))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != CKPT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file")
            version, header_len = struct.unpack("<II", fh.read(8))
            if version != CKPT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {version}")
            header = json.loads(fh.read(header_len))
            blocks_start = fh.tell()
            fh.seek(size - 8)
            (index_pos,) = struct.unpack("<Q", fh.read(8))
            if not blocks_start <= index_pos <= size - 8:
                raise DataError(f"{path}: index offset {index_pos} out of range")
            fh.seek(index_pos)
            index = json.loads(fh.read(size - 8 - index_pos))
            if not isinstance(header, dict) or not isinstance(index, dict):
                raise DataError(f"{path}: header and index must be JSON objects")
            cfg = model_config_from_dict(header.get("model"))
            shapes = tensor_shapes(cfg)
            if set(index) != set(shapes):
                raise DataError(f"{path}: tensor names do not match the header's {cfg.kind} config: "
                                f"{sorted(set(index) ^ set(shapes))[:5]}")
            tensors = {}
            for name, offset in index.items():
                if type(offset) is not int or not blocks_start <= offset < index_pos:
                    raise DataError(f"{path}: tensor {name!r} offset {offset!r} out of range")
                fh.seek(offset)
                tensors[name] = T.read_array(fh)
                if fh.tell() > index_pos:
                    raise DataError(f"{path}: tensor {name!r} runs into the index")
                if tensors[name].shape != shapes[name]:
                    raise DataError(f"{path}: tensor {name!r} shape {tensors[name].shape} does not match "
                                    f"the header's {cfg.kind} config: {shapes[name]}")
        except (struct.error, ValueError, NumericError) as exc:
            raise DataError(f"{path}: corrupt checkpoint: {exc}") from exc
    return Checkpoint(cfg, tensors, step=header.get("step", 0), rng_state=header.get("rng_state"))
