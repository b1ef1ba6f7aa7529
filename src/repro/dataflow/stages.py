"""Reusable recognition-stage nodes for dataflow graphs.

The fleet pipeline wires its own mission-specific nodes
(:mod:`repro.mission.pipeline`); this module holds the stage nodes
that are useful in *any* graph over the recognition stack — today the
incremental dynamic-sign decoder, lifted onto a node so a streaming
recognition graph (camera source → decode → consumer) gets per-stage
latency and queue-occupancy metrics for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.dataflow.node import Node, Port
from repro.recognition.dynamic import DynamicRecognition
from repro.vision.image import Image

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.recognition.dynamic import DynamicSignRecognizer

__all__ = ["DynamicDecodeNode", "FrameChunk"]


class FrameChunk(list):
    """One chunk of camera frames flowing through a streaming graph.

    A thin ``list[Image]`` subclass so channels carrying chunks are
    typed (``dtype=FrameChunk``) without wrapping every frame
    individually.
    """

    def __init__(self, frames: Sequence[Image] = ()) -> None:
        super().__init__(frames)


class DynamicDecodeNode(Node):
    """Incremental dynamic-sign decoding as a pipeline stage.

    Wraps a :class:`~repro.recognition.dynamic.DynamicSignStream`
    (opened lazily from the recogniser at first use): each
    :class:`FrameChunk` arriving on the ``chunks`` input is fed to the
    stream — classified through the batched front-end and folded into
    the never-re-decoding incremental decoder — and the cumulative
    :class:`~repro.recognition.dynamic.DynamicRecognition` verdict is
    emitted on ``verdicts``.  Chunked decoding through the node is
    bit-identical to one-shot window decoding (the streaming-parity
    contract of :mod:`repro.recognition.dynamic`), so placing the
    decoder behind a channel changes *where* it runs, never what it
    decides.

    Parameters
    ----------
    name:
        Node name.
    recognizer:
        The enrolled :class:`~repro.recognition.dynamic.DynamicSignRecognizer`.
    elevation_deg / sample_hz:
        Stream parameters, as for
        :meth:`~repro.recognition.dynamic.DynamicSignRecognizer.open_stream`.
    """

    inputs = (Port("chunks", FrameChunk),)
    outputs = (Port("verdicts", DynamicRecognition),)

    def __init__(
        self,
        name: str,
        recognizer: "DynamicSignRecognizer",
        elevation_deg: float | None = None,
        sample_hz: float | None = None,
    ) -> None:
        super().__init__(name)
        self._recognizer = recognizer
        self._elevation_deg = elevation_deg
        self._sample_hz = sample_hz
        self._stream = None

    @property
    def stream(self):
        """The underlying stream (opened on first use)."""
        if self._stream is None:
            self._stream = self._recognizer.open_stream(
                elevation_deg=self._elevation_deg, sample_hz=self._sample_hz
            )
        return self._stream

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Feed each arriving chunk; emit the cumulative verdict."""
        verdicts = [self.stream.feed(chunk) for chunk in inputs["chunks"]]
        return {"verdicts": verdicts}
