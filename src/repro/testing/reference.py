"""The naive perception reference the batched fleet path is checked against."""

from __future__ import annotations

from repro.geometry.vec import Vec3
from repro.human.agent import HumanAgent
from repro.human.signs import MarshallingSign
from repro.protocol.recognizer import RecognizerPerception

__all__ = ["ScalarReferencePerception"]


class ScalarReferencePerception:
    """Scalar per-frame reference for a :class:`RecognizerPerception`.

    Builds each observation's query through *view* (same envelope gate,
    pose quantum and lighting), then renders it and classifies it alone
    with the scalar
    :meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognise`:
    no cache, no batching.  It is not a :class:`RecognizerPerception`,
    so the fleet graph's ``predict`` node leaves its missions unbatched.
    """

    def __init__(self, view: RecognizerPerception) -> None:
        self.view = view

    def observe(self, drone_position: Vec3, human: HumanAgent) -> MarshallingSign | None:
        """Read the human's sign through the scalar pipeline."""
        query = self.view.query(drone_position, human)
        if query is None:
            return None
        frame = query.render()
        return self.view.recognizer.recognise(frame, elevation_deg=query.elevation_deg).sign
