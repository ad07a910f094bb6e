"""The two recognizer architectures and their checkpoint format.

CtcModel: stacked LSTMs followed by a final dense projection onto the
subword vocabulary plus a trailing blank. LasModel: transformer encoder
over features, autoregressive transformer decoder over subword ids with
BOS/EOS appended after the subword table.

``tensor_shapes`` is the one list of a model's tensor names, order and
shapes. Names follow "submodule.index.param" (e.g. "lstm.0.w",
"decoder.1.cross_attn.wq.w"); freeze policies select by their prefixes,
and a checkpoint stores the tensors in this order after a header that
holds the config, so the file needs no index of its own.
A model is built from a {name: array} dict, drawn by ``init_tensors`` or
read from a checkpoint, and its layers hold those arrays as they are given.
``init_tensors`` draws straight into float32 arrays through a small float64
buffer; the one seeded uniform stream is cut into two contiguous halves,
drawn on two threads from a PCG64 advanced to each half's start, so the
values equal one sequential ``default_rng(seed).uniform`` draw bit for bit.
A checkpoint's arrays are read-only, so a model built from one shares
them with the checkpoint; training copies a tensor before its first
update (``adapt.train_model``), and a frozen one is never copied.

Each layer call records one tape node (``layers``). Beam search runs
``IncrementalDecoder``, which calls the array code of the same layer
objects and holds no layer math of its own.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
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
CKPT_VERSION = 3


class _ModelBase:
    def __init__(self, cfg, tensors: dict[str, np.ndarray]):
        """Holds the arrays of tensors, a name -> array dict of every name in
        tensor_shapes(cfg), without copying them."""
        self.cfg = cfg
        self.params = {name: Tensor(tensors[name], requires_grad=True) for name in tensor_shapes(cfg)}

    def _features(self, feats: np.ndarray) -> np.ndarray:
        """Padded features [T,B,D] as float32, checked to hold a frame and an
        utterance and to have the config's feature dim."""
        if feats.ndim != 3 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ShapeError(f"{self.cfg.kind.upper()} features must be [T>=1, B>=1, {self.cfg.feat_dim}], "
                             f"got {feats.shape}")
        if feats.shape[-1] != self.cfg.feat_dim:
            raise ShapeError(f"feature dim {feats.shape[-1]} does not match config {self.cfg.feat_dim}")
        return feats.astype(np.float32, copy=False)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

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

    def encode(self, feats: np.ndarray) -> Tensor:
        """Padded features [T,B,D] -> the top LSTM's hidden states [T,B,hidden]."""
        x = Tensor(self._features(feats))
        for layer in self.lstms:
            x = layer.forward(x)
        return x

    def log_probs(self, enc: Tensor) -> Tensor:
        """Encoder output [T,B,hidden] -> log-probs [T,B,V+1] (dense, log-softmax)."""
        return T.log_softmax(self.dense(enc))

    def forward(self, feats: np.ndarray) -> Tensor:
        """Padded features [T,B,D] -> log-probs Tensor [T,B,V+1]."""
        return self.log_probs(self.encode(feats))

    def log_probs_single(self, feats: np.ndarray) -> np.ndarray:
        """Inference path for one utterance [T,D] -> [T,V+1] (no tape)."""
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ShapeError(f"CTC features must be [T>=1, {self.cfg.feat_dim}], got {feats.shape}")
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

    def _pe_slice(self, length: int) -> np.ndarray:
        if length > self._pe.shape[0]:
            self._pe = positional_encoding(2 * length, self.cfg.dim)
        return self._pe[:length]

    def encode(self, feats: np.ndarray, lengths: np.ndarray | None = None):
        """Features [T,B,D] -> (memory [B,Tenc,dim], key-padding mask)."""
        feats = self._features(feats)
        t_len, batch, _ = feats.shape
        if lengths is None:
            lengths = np.full(batch, t_len, dtype=np.int64)
        x = feats.transpose(1, 0, 2)  # [B,T,D]
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

    def dense(name, d_in, d_out, bias=True):
        shapes[f"{name}.w"] = (d_in, d_out)
        if bias:
            shapes[f"{name}.b"] = (d_out,)

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
                    # softmax ignores a shift shared by every key of a query, so keys take no bias
                    dense(f"{name}.{attn}.{proj}", dim, dim, bias=proj != "wk")
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
    return shapes


DRAW_CHUNK = 1 << 16  # float64 draws per fill buffer (512 kB)
THREADED_DRAW_CHUNKS = 16  # a draw of fewer chunks than this runs on the calling thread


def init_tensors(cfg, seed: int = 0) -> dict[str, np.ndarray]:
    """Float32 initial values of every tensor of tensor_shapes(cfg), equal bit
    for bit to drawing them in that order from one default_rng(seed) with
    ``rng.uniform(low, high, size).astype(np.float32)``.

    Weights ("*.w", "*.u", "embed.table") are uniform in ±1/sqrt(fan_in),
    fan_in being the first dim (the second for the embedding table). Norm
    scales ("*.gamma") are one and the rest zero, except the forget-gate
    quarter [H:2H] of an LSTM bias, which is one; these draw nothing.

    Each tensor is allocated once, as float32. The weights' draws, laid end
    to end, are one stream of uniform doubles, and PCG64 can jump ahead any
    number of draws, so the stream is cut into two contiguous halves, each
    drawn from PCG64(seed) advanced to its start, on its own thread. A half
    is filled through a fixed float64 buffer with the arithmetic of
    ``uniform`` (low + (high - low) * u, one 64-bit output per u) and cast
    into place. A stream shorter than THREADED_DRAW_CHUNKS buffers is drawn
    whole on the calling thread. UsageError for a seed that is not a
    non-negative int.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise UsageError(f"seed must be a non-negative int, got {seed!r}")
    seed = int(seed)
    tensors, draws = {}, []
    for name, shape in tensor_shapes(cfg).items():
        if name.endswith((".w", ".u", "embed.table")):
            bound = 1.0 / np.sqrt(shape[1] if name.endswith("table") else shape[0])
            tensors[name] = np.empty(shape, np.float32)
            draws.append((tensors[name].reshape(-1), -bound, bound))
        elif name.endswith(".gamma"):
            tensors[name] = np.ones(shape, np.float32)
        else:
            tensors[name] = np.zeros(shape, np.float32)
            if name.startswith("lstm.") and name.endswith(".b"):
                hidden = shape[0] // 4
                tensors[name][hidden:2 * hidden] = 1.0
    total = sum(flat.size for flat, _, _ in draws)
    if total < THREADED_DRAW_CHUNKS * DRAW_CHUNK:
        _draw_span(draws, seed, 0, total)
        return tensors
    failed = []

    def second_half():
        try:
            _draw_span(draws, seed, total // 2, total)
        except Exception as exc:  # raised again on the calling thread
            failed.append(exc)

    worker = threading.Thread(target=second_half)
    worker.start()
    try:
        _draw_span(draws, seed, 0, total // 2)
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return tensors


def _draw_span(draws, seed: int, start: int, stop: int) -> None:
    """Draws [start, stop) of the uniform stream that fills draws, a list of
    (flat float32 array, low, high) in stream order."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(start)
    rng = np.random.Generator(bitgen)
    # a chunk never spans two arrays, so the buffer need not outgrow the largest
    buf = np.empty(min(DRAW_CHUNK, stop - start, max(flat.size for flat, _, _ in draws)))
    offset = 0  # stream position of the current array's first value
    for flat, low, high in draws:
        first, end = max(start - offset, 0), min(stop - offset, flat.size)
        offset += flat.size
        for i in range(first, end, DRAW_CHUNK):
            chunk = buf[:min(DRAW_CHUNK, end - i)]
            rng.random(out=chunk)
            chunk *= high - low
            chunk += low
            flat[i:i + len(chunk)] = chunk


# -- checkpoints ---------------------------------------------------------------
# layout: magic, u32 version, u32 header_len, header json, then one NDT1 block
#         per tensor in tensor_shapes(header config) order, then end of file

class Checkpoint:
    def __init__(self, config, tensors: dict[str, np.ndarray], step: int = 0,
                 rng_state: dict | None = None):
        self.config = config
        self.tensors = tensors
        self.step = step
        self.rng_state = rng_state

    def build_model(self):
        """A model holding the checkpoint's own arrays, uncopied. A checkpoint
        that load_checkpoint read has read-only arrays, so an in-place write
        raises ValueError and the checkpoint stays as it was read."""
        return _model(self.config, self.tensors)


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
        for name in tensor_shapes(model.cfg):
            T.write_array(fh, tensors[name])


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path, each of its arrays read-only; DataError for a
    path that is not a file, or a corrupt file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found or not a file: {path}")
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != CKPT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file")
            version, header_len = struct.unpack("<II", fh.read(8))
            if version != CKPT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {version}")
            header = json.loads(fh.read(header_len))
            if not isinstance(header, dict):
                raise DataError(f"{path}: header must be a JSON object")
            cfg = model_config_from_dict(header.get("model"))
            shapes = tensor_shapes(cfg)
            needed = sum(T.ndt_nbytes(shape) for shape in shapes.values())
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held < needed:  # checked before a corrupt config can allocate
                raise DataError(f"{path}: corrupt checkpoint: the header's {cfg.kind} config needs "
                                f"{needed} bytes of tensors, the file holds {held}")
            if held > needed:
                raise DataError(f"{path}: bytes after the last tensor of the header's {cfg.kind} config")
            # one block holds every tensor, read-only so that no view of it can be made writeable
            block = np.empty(sum(math.prod(shape) for shape in shapes.values()), dtype=np.float32)
            tensors, offset = {}, 0
            for name, shape in shapes.items():
                tensors[name] = block[offset:offset + math.prod(shape)].reshape(shape)
                offset += tensors[name].size
                try:
                    T.read_array(fh, out=tensors[name])
                except ShapeError as exc:
                    raise DataError(f"{path}: tensor {name!r} does not match the header's {cfg.kind} "
                                    f"config: {exc}") from exc
                tensors[name].flags.writeable = False
            block.flags.writeable = False
        except (struct.error, ValueError, NumericError) as exc:
            raise DataError(f"{path}: corrupt checkpoint: {exc}") from exc
    return Checkpoint(cfg, tensors, step=header.get("step", 0), rng_state=header.get("rng_state"))
