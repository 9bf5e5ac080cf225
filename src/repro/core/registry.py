"""Registry mapping decoder-kind names to constructors.

Mirrors :mod:`repro.codes.registry`: CLI flags and benchmark configs
name decoders by string — ``get_decoder("ppm", threads=4)``.  Every
kind is the pipeline engine or a preset of it; all constructors take
keyword-only parameters with the uniform vocabulary ``threads=``,
``policy=``, ``verify=``, ``counter=`` (each where meaningful).
"""

from __future__ import annotations

from typing import Callable

from ..pipeline.engine import DecodePipeline
from .bitdecoder import BitMatrixDecoder
from .decoder import PPMDecoder, ProcessParallelDecoder, TraditionalDecoder
from .rowparallel import RowParallelDecoder
from .segparallel import SegmentParallelDecoder

_REGISTRY: dict[str, Callable[..., DecodePipeline]] = {
    "traditional": TraditionalDecoder,
    "ppm": PPMDecoder,
    "row_parallel": RowParallelDecoder,
    "segment_parallel": SegmentParallelDecoder,
    "process_parallel": ProcessParallelDecoder,
    "bitmatrix": BitMatrixDecoder,
    "pipeline": DecodePipeline,
}


def available_decoders() -> tuple[str, ...]:
    """Registered decoder kinds, sorted."""
    return tuple(sorted(_REGISTRY))


def get_decoder(kind: str, **params) -> DecodePipeline:
    """Construct a decoder by registry name with keyword parameters."""
    try:
        ctor = _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown decoder kind {kind!r}; available: {', '.join(available_decoders())}"
        ) from None
    return ctor(**params)
