"""File-level encoder/decoder — the shape of Plank's SD encoder/decoder.

The paper's experiments modify "the open source SD encoder and decoder"
(Plank, UT-CS-13-704): command-line tools that split a file into
``n`` per-disk strip files plus metadata, and reconstruct the original
from any decodable subset.  This package reproduces that tool on top of
the library:

- :func:`encode_file` — split + encode ``file`` into ``<stem>_disk<j>.dat``
  strip files and a ``<stem>_meta.json`` descriptor;
- :func:`decode_file` — rebuild the original file from the surviving
  strip files (missing/deleted disks are erasure-decoded per stripe);
- :func:`repair_files` — regenerate the missing strip files themselves.

Layout: file bytes fill the data blocks of consecutive stripes in
ascending block-id order, zero-padded at the tail; every sector of disk
``j`` across all stripes concatenates into strip file ``j`` (so deleting
one file == failing one disk).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..codes import get_code
from ..codes.base import ErasureCode
from ..pipeline import DecodePipeline
from ..stripes.layout import StripeLayout


@dataclass(frozen=True)
class FileCodecMeta:
    """Descriptor of an encoded file (serialised to JSON)."""

    original_name: str
    original_size: int
    code_kind: str
    code_params: dict
    sector_bytes: int
    num_stripes: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "repro-ppm-filecodec-v1",
                "original_name": self.original_name,
                "original_size": self.original_size,
                "code_kind": self.code_kind,
                "code_params": self.code_params,
                "sector_bytes": self.sector_bytes,
                "num_stripes": self.num_stripes,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FileCodecMeta":
        data = json.loads(text)
        if data.get("format") != "repro-ppm-filecodec-v1":
            raise ValueError(f"not a filecodec descriptor: {data.get('format')!r}")
        return cls(
            original_name=data["original_name"],
            original_size=data["original_size"],
            code_kind=data["code_kind"],
            code_params=data["code_params"],
            sector_bytes=data["sector_bytes"],
            num_stripes=data["num_stripes"],
        )

    def build_code(self) -> ErasureCode:
        return get_code(self.code_kind, **self.code_params)


def _strip_path(out_dir: str, stem: str, disk: int) -> str:
    return os.path.join(out_dir, f"{stem}_disk{disk:03d}.dat")


def _meta_path(out_dir: str, stem: str) -> str:
    return os.path.join(out_dir, f"{stem}_meta.json")


def _sector_symbols(code: ErasureCode, sector_bytes: int) -> int:
    word = code.field.dtype.itemsize
    if sector_bytes % word:
        raise ValueError(
            f"sector_bytes={sector_bytes} not a multiple of the {word}-byte symbol"
        )
    return sector_bytes // word


def encode_file(
    path: str,
    code: ErasureCode,
    out_dir: str,
    sector_bytes: int = 4096,
    encoder: DecodePipeline | None = None,
    code_params: dict | None = None,
) -> FileCodecMeta:
    """Encode ``path`` into per-disk strip files under ``out_dir``.

    ``code_params`` are recorded in the descriptor so ``decode_file``
    can rebuild the identical code (defaults to the obvious attributes
    for registered kinds).
    """
    from ..core import TraditionalDecoder

    encoder = encoder if encoder is not None else TraditionalDecoder()
    symbols = _sector_symbols(code, sector_bytes)
    with open(path, "rb") as fh:
        payload = fh.read()
    data_per_stripe = len(code.data_block_ids) * sector_bytes
    num_stripes = max(1, -(-len(payload) // data_per_stripe))
    padded = payload.ljust(num_stripes * data_per_stripe, b"\0")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(path))[0]
    layout = StripeLayout.of_code(code)

    strips: list[list[bytes]] = [[] for _ in range(code.n)]
    dtype = code.field.dtype
    for si in range(num_stripes):
        base = si * data_per_stripe
        blocks: dict[int, np.ndarray] = {}
        for idx, bid in enumerate(code.data_block_ids):
            chunk = padded[base + idx * sector_bytes : base + (idx + 1) * sector_bytes]
            blocks[bid] = np.frombuffer(chunk, dtype=dtype).copy()
        parity = encoder.decode(code, blocks, code.parity_block_ids)
        blocks.update(parity)
        for disk in range(code.n):
            for bid in layout.blocks_of_disk(disk):
                strips[disk].append(blocks[bid].tobytes())
    for disk in range(code.n):
        with open(_strip_path(out_dir, stem, disk), "wb") as fh:
            fh.write(b"".join(strips[disk]))

    meta = FileCodecMeta(
        original_name=os.path.basename(path),
        original_size=len(payload),
        code_kind=code.kind,
        code_params=code_params if code_params is not None else _infer_params(code),
        sector_bytes=sector_bytes,
        num_stripes=num_stripes,
    )
    with open(_meta_path(out_dir, stem), "w") as fh:
        fh.write(meta.to_json() + "\n")
    return meta


def _infer_params(code: ErasureCode) -> dict:
    """Constructor kwargs for the registered code kinds."""
    if code.kind in ("sd", "pmds"):
        return {
            "n": code.n,
            "r": code.r,
            "m": code.m,
            "s": code.s,
            "w": code.field.w,
            "coefficients": list(code.coefficients),
        }
    if code.kind == "lrc":
        return {
            "k": code.k,
            "l": code.l,
            "g": code.g,
            "w": code.field.w,
            "group_sizes": list(code.group_sizes),
        }
    if code.kind == "rs":
        return {"n": code.n, "k": code.k, "r": code.r, "w": code.field.w, "style": code.style}
    if code.kind in ("evenodd", "rdp", "star"):
        return {"p": code.p, "w": code.field.w}
    raise ValueError(f"cannot infer constructor params for code kind {code.kind!r}")


def _load_strips(
    meta: FileCodecMeta, code: ErasureCode, directory: str, stem: str
) -> tuple[dict[int, bytes], list[int]]:
    """Read surviving strip files; returns (per-disk bytes, missing disks)."""
    expected = meta.num_stripes * code.r * meta.sector_bytes
    available: dict[int, bytes] = {}
    missing: list[int] = []
    for disk in range(code.n):
        strip = _strip_path(directory, stem, disk)
        if not os.path.exists(strip):
            missing.append(disk)
            continue
        with open(strip, "rb") as fh:
            blob = fh.read()
        if len(blob) != expected:
            raise ValueError(
                f"strip {strip} has {len(blob)} bytes, expected {expected}"
            )
        available[disk] = blob
    return available, missing


def _recover_stripes(
    meta: FileCodecMeta,
    code: ErasureCode,
    available: dict[int, bytes],
    missing: list[int],
    decoder: DecodePipeline,
):
    """Yield (stripe_index, blocks dict incl. recovered) for every stripe."""
    layout = StripeLayout.of_code(code)
    dtype = code.field.dtype
    sector_bytes = meta.sector_bytes
    faulty = sorted(
        bid for disk in missing for bid in layout.blocks_of_disk(disk)
    )
    for si in range(meta.num_stripes):
        blocks: dict[int, np.ndarray] = {}
        for disk, blob in available.items():
            base = si * code.r * sector_bytes
            for row, bid in enumerate(layout.blocks_of_disk(disk)):
                chunk = blob[base + row * sector_bytes : base + (row + 1) * sector_bytes]
                blocks[bid] = np.frombuffer(chunk, dtype=dtype)
        if faulty:
            blocks.update(decoder.decode(code, blocks, faulty))
        yield si, blocks


def decode_file(
    meta_path: str,
    out_path: str,
    decoder: DecodePipeline | None = None,
) -> FileCodecMeta:
    """Reconstruct the original file from the strip files next to ``meta_path``."""
    from ..core import PPMDecoder

    decoder = decoder if decoder is not None else PPMDecoder(parallel=False)
    directory = os.path.dirname(os.path.abspath(meta_path))
    with open(meta_path) as fh:
        meta = FileCodecMeta.from_json(fh.read())
    code = meta.build_code()
    stem = os.path.splitext(meta.original_name)[0]
    available, missing = _load_strips(meta, code, directory, stem)
    if len(missing) and not available:
        raise ValueError("no strip files found")
    with open(out_path, "wb") as out:
        remaining = meta.original_size
        for _si, blocks in _recover_stripes(meta, code, available, missing, decoder):
            for bid in code.data_block_ids:
                if remaining <= 0:
                    break
                chunk = blocks[bid].tobytes()[: max(0, remaining)]
                out.write(chunk)
                remaining -= len(chunk)
    return meta


def repair_files(
    meta_path: str,
    decoder: DecodePipeline | None = None,
) -> list[int]:
    """Regenerate missing strip files in place; returns the repaired disks."""
    from ..core import PPMDecoder

    decoder = decoder if decoder is not None else PPMDecoder(parallel=False)
    directory = os.path.dirname(os.path.abspath(meta_path))
    with open(meta_path) as fh:
        meta = FileCodecMeta.from_json(fh.read())
    code = meta.build_code()
    stem = os.path.splitext(meta.original_name)[0]
    available, missing = _load_strips(meta, code, directory, stem)
    if not missing:
        return []
    layout = StripeLayout.of_code(code)
    rebuilt: dict[int, list[bytes]] = {disk: [] for disk in missing}
    for _si, blocks in _recover_stripes(meta, code, available, missing, decoder):
        for disk in missing:
            for bid in layout.blocks_of_disk(disk):
                rebuilt[disk].append(blocks[bid].tobytes())
    for disk in missing:
        with open(_strip_path(directory, stem, disk), "wb") as fh:
            fh.write(b"".join(rebuilt[disk]))
    return missing
