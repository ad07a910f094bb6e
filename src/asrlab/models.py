"""The two recognizer architectures and their checkpoint format.

CtcModel: stacked LSTMs followed by a final dense projection onto the
subword vocabulary plus a trailing blank. LasModel: transformer encoder
over features, autoregressive transformer decoder over subword ids with
BOS/EOS appended after the subword table.

Parameter names follow "submodule.index.param" (e.g. "lstm.0.w",
"decoder.1.cross_attn.wq.w"); freeze policies and checkpoints key off
these names. Feature mean/variance stats ride along as non-trainable
buffers under "norm.*".
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
from .layers import (Dense, DecoderBlock, EncoderBlock, Embedding, LayerNorm, LstmLayer,
                     causal_mask, key_padding_mask, positional_encoding, prefixed)
from .tensor import Tensor

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1


class _ModelBase:
    def __init__(self, cfg):
        self.cfg = cfg
        self.norm_mean = np.zeros(cfg.feat_dim, dtype=np.float32)
        self.norm_std = np.ones(cfg.feat_dim, dtype=np.float32)

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
    def __init__(self, cfg: CtcConfig, seed: int = 0):
        super().__init__(cfg)
        rng = np.random.default_rng(seed)
        self.lstms = []
        d_in = cfg.feat_dim
        for _ in range(cfg.layers):
            self.lstms.append(LstmLayer(d_in, cfg.hidden, rng))
            d_in = cfg.hidden
        self.dense = Dense(cfg.hidden, cfg.output_dim, rng)

    @property
    def blank_id(self) -> int:
        return self.cfg.vocab

    def parameters(self) -> dict[str, Tensor]:
        return prefixed(lstm=self.lstms, dense=self.dense)

    def top_lstm_names(self, k: int) -> list[str]:
        """Names of the k LSTM layers nearest the output."""
        k = min(k, len(self.lstms))
        names = []
        for i in range(len(self.lstms) - k, len(self.lstms)):
            names.extend(f"lstm.{i}.{n}" for n in self.lstms[i].parameters())
        return names

    def encode(self, feats: np.ndarray) -> Tensor:
        """Padded features [T,B,D] -> the top LSTM's hidden states [T,B,hidden]."""
        x = Tensor(self.normalize(feats))
        for layer in self.lstms:
            x = layer.forward(x)
        return x

    def log_probs(self, enc: Tensor) -> Tensor:
        """Encoder output [T,B,hidden] -> log-probs [T,B,V+1] (dense, log-softmax)."""
        t_len, batch, _ = enc.shape
        logits = self.dense(T.reshape(enc, (t_len * batch, self.cfg.hidden)))
        lp = T.log_softmax(logits, axis=-1)
        return T.reshape(lp, (t_len, batch, self.cfg.output_dim))

    def forward(self, feats: np.ndarray) -> Tensor:
        """Padded features [T,B,D] -> log-probs Tensor [T,B,V+1]."""
        return self.log_probs(self.encode(feats))

    def log_probs_single(self, feats: np.ndarray) -> np.ndarray:
        """Inference path for one utterance [T,D] -> [T,V+1] (no tape)."""
        return self.forward(feats[:, None, :]).data[:, 0]


class LasModel(_ModelBase):
    def __init__(self, cfg: LasConfig, seed: int = 0):
        super().__init__(cfg)
        rng = np.random.default_rng(seed)
        self.input_proj = Dense(cfg.feat_dim, cfg.dim, rng)
        self.encoder = [EncoderBlock(cfg.dim, cfg.ff_dim, cfg.heads, rng) for _ in range(cfg.enc_blocks)]
        self.enc_norm = LayerNorm(cfg.dim)
        self.embed = Embedding(cfg.output_dim, cfg.dim, rng)
        self.decoder = [DecoderBlock(cfg.dim, cfg.ff_dim, cfg.heads, rng) for _ in range(cfg.dec_blocks)]
        self.dec_norm = LayerNorm(cfg.dim)
        self.dense = Dense(cfg.dim, cfg.output_dim, rng)
        self._pe = positional_encoding(512, cfg.dim)

    @property
    def bos_id(self) -> int:
        return self.cfg.vocab

    @property
    def eos_id(self) -> int:
        return self.cfg.vocab + 1

    def parameters(self) -> dict[str, Tensor]:
        return prefixed(input_proj=self.input_proj, encoder=self.encoder, enc_norm=self.enc_norm,
                        embed=self.embed, decoder=self.decoder, dec_norm=self.dec_norm, dense=self.dense)

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
        h = T.mul(h, float(np.sqrt(self.cfg.dim)))  # keep content comparable to the position signal
        pe = np.broadcast_to(self._pe_slice(t_len)[None], (batch, t_len, self.cfg.dim))
        h = T.add(h, Tensor(np.ascontiguousarray(pe)))
        pad = key_padding_mask(lengths, t_len)
        for block in self.encoder:
            h = block(h, pad)
        return self.enc_norm(h), pad

    def _embed(self, ids: np.ndarray, start: int = 0) -> Tensor:
        """Scaled embeddings of ids [B, L] plus the encodings of positions start..start+L-1."""
        batch, length = ids.shape
        y = T.mul(self.embed(ids), float(np.sqrt(self.cfg.dim)))
        pe = np.broadcast_to(self._pe_slice(start + length)[None, start:], (batch, length, self.cfg.dim))
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
            y, _ = block(y, block.cross_attn.project_kv(memory, memory), causal, mem_mask)
        return self.dense(self.dec_norm(y))

    def forward(self, feats: np.ndarray, lengths: np.ndarray | None, prefix: np.ndarray) -> Tensor:
        memory, pad = self.encode(feats, lengths)
        return self.decode_logits(memory, pad, prefix)

    def start_decoding(self, memory: Tensor, mem_mask: np.ndarray | None = None) -> IncrementalDecoder:
        """Incremental decoder state for one utterance's memory [1, Tenc, dim]."""
        return IncrementalDecoder(self, memory, mem_mask)


class IncrementalDecoder:
    """Decodes one new position per step, reusing the work of earlier steps.

    Each decoder block projects the cross-attention keys and values of
    the memory once, and caches the self-attention keys and values of
    every earlier position per row, [rows*heads, L, head_dim]. A step
    first reorders that cache by each row's parent row, so the logits
    match ``LasModel.decode_logits`` on the rows' full prefixes.
    """

    def __init__(self, model: LasModel, memory: Tensor, mem_mask: np.ndarray | None):
        if memory.ndim != 3 or memory.shape[0] != 1:
            raise ShapeError(f"incremental decoding wants the memory of one utterance, got {memory.shape}")
        self.model = model
        # a mask that hides no memory frame would only add zeros to the scores at every step
        self.mem_mask = mem_mask if mem_mask is not None and mem_mask.any() else None
        self.memory_kv = [block.cross_attn.project_kv(memory, memory) for block in model.decoder]
        cfg = model.cfg
        empty = np.zeros((cfg.heads, 0, cfg.dim // cfg.heads), dtype=memory.dtype)
        self.past = [(empty, empty)] * len(model.decoder)
        self.pos = 0

    def step(self, rows, tokens) -> np.ndarray:
        """Logits [n, V'] for the next position of n rows.

        Row i extends row rows[i] of the previous step by token tokens[i];
        the first step has the one row 0, extended by BOS.
        """
        model, heads = self.model, self.model.cfg.heads
        rows = np.asarray(rows, dtype=np.int64)
        cache_rows = (rows[:, None] * heads + np.arange(heads)).ravel()
        y = model._embed(np.asarray(tokens, dtype=np.int64)[:, None], self.pos)
        for i, block in enumerate(model.decoder):
            k, v = self.past[i]
            y, self.past[i] = block(y, self.memory_kv[i], mem_mask=self.mem_mask,
                                    past_kv=(k[cache_rows], v[cache_rows]))
        self.pos += 1
        return model.dense(model.dec_norm(y)).data[:, 0]


def build_model(cfg, seed: int = 0):
    if isinstance(cfg, CtcConfig):
        return CtcModel(cfg, seed)
    if isinstance(cfg, LasConfig):
        return LasModel(cfg, seed)
    raise UsageError(f"unknown config type {type(cfg)!r}")


def tensor_shapes(cfg) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of the model a config builds, in
    ``named_tensors`` order, without building the model."""
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

    def build_model(self, seed: int = 0):
        model = build_model(self.config, seed)
        self.restore_into(model)
        return model

    def restore_into(self, model) -> None:
        if asdict(model.cfg) != asdict(self.config):
            raise DataError(f"checkpoint config {asdict(self.config)} does not match model {asdict(model.cfg)}")
        params = model.parameters()
        expected = set(params) | set(model.buffers())
        if expected != set(self.tensors):
            missing = expected ^ set(self.tensors)
            raise DataError(f"checkpoint tensor names mismatch: {sorted(missing)[:5]}")
        for name, p in params.items():
            arr = self.tensors[name]
            if arr.shape != p.data.shape:
                raise DataError(f"tensor {name} shape {arr.shape} != model {p.data.shape}")
            p.data = arr.astype(np.float32)
        model.set_normalizer(self.tensors["norm.mean"], self.tensors["norm.std"])


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
