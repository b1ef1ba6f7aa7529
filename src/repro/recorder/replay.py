"""Self-describing recordings: record a run, replay it bit-exactly.

A recording's ``header`` carries the exact *recipe* that produced the
run — the :class:`~repro.mission.spec.FleetSpec` fields under the
keyword names the fleet builder took before the spec existed
(``negotiation_config`` for
:attr:`~repro.mission.spec.FleetSpec.negotiation`), with dataclass
configs flattened to dicts and wind/lighting conditions reduced to
their names in :data:`~repro.simulation.scenarios.WINDS` /
:data:`~repro.simulation.scenarios.LIGHTINGS` (a condition that is not
its registry entry is refused, since its name would decode to that
entry).  That makes every
recording replayable with no side channel: :func:`replay` reads the
recipe back, re-drives a fresh fleet with a fresh recorder attached,
and byte-compares the two deterministic streams
(:func:`~repro.recorder.diffing.first_divergence` localises any
mismatch to node/tick/field).

The determinism contract this leans on is the repo's oldest: the same
fleet parameters replay the same missions tick for tick.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.mission.fleet import FleetReport, FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder.diffing import Divergence, checked_lines, first_divergence
from repro.recorder.events import SCHEMA_VERSION, decode_value, parse_line
from repro.recorder.recorder import FlightRecorder, read_lines
from repro.simulation.scenarios import LIGHTINGS, WINDS, registry_name

__all__ = [
    "ReplayResult",
    "make_recipe",
    "recipe_of",
    "record_fleet_run",
    "replay",
    "run_recipe",
]

#: The one recipe builder: :func:`~repro.mission.fleet.build_fleet`.
_BUILDER = "fleet"
_RECIPE_KEYS = frozenset(
    {
        "count",
        "base_seed",
        "config",
        "perception",
        "winds",
        "lightings",
        "negotiation_config",
    }
)

_CONFIG_KEYS = frozenset({"config", "negotiation_config"})
_CONDITION_KEYS = frozenset({"winds", "lightings"})


def _check_builder(builder) -> None:
    if builder != _BUILDER:
        raise ValueError(f"unknown recipe builder: {builder!r}")


def _encode_kwargs(kwargs: dict) -> dict:
    encoded = {}
    for key, value in kwargs.items():
        if key not in _RECIPE_KEYS:
            raise ValueError(f"{key!r} is not a recordable {_BUILDER} recipe argument")
        if key in _CONFIG_KEYS:
            encoded[key] = asdict(value) if value is not None else None
        elif key in _CONDITION_KEYS:
            registry, kind = (WINDS, "wind") if key == "winds" else (LIGHTINGS, "lighting")
            encoded[key] = [registry_name(condition, registry, kind) for condition in value]
        elif isinstance(value, (bool, int, float, str)) or value is None:
            encoded[key] = value
        else:
            raise ValueError(f"recipe value for {key!r} is not recordable: {value!r}")
    return encoded


def _decode_kwargs(encoded: dict) -> dict:
    decoded = {}
    for key, value in encoded.items():
        if key not in _RECIPE_KEYS:
            raise ValueError(f"{key!r} is not a {_BUILDER} recipe argument")
        if key == "config" and value is not None:
            decoded[key] = OrchardConfig(**value)
        elif key == "negotiation_config" and value is not None:
            decoded[key] = NegotiationConfig(**value)
        elif key in _CONDITION_KEYS:
            registry = WINDS if key == "winds" else LIGHTINGS
            try:
                decoded[key] = tuple(registry[name] for name in value)
            except KeyError as exc:
                raise ValueError(f"unknown {key} condition in recipe: {exc}") from None
        else:
            decoded[key] = value
    return decoded


def make_recipe(builder: str, **kwargs) -> dict:
    """Encode recipe *kwargs* as a replayable recipe dict.

    The seam for callers that drive :func:`~repro.mission.fleet.build_fleet`
    themselves (to own the timing or the fleet object) but still want a
    self-describing recording: build the recipe here, pass it to
    :meth:`~repro.recorder.recorder.FlightRecorder.write_header`, then
    attach the recorder via ``FleetSpec(recorder=...)``.
    """
    _check_builder(builder)
    return {"builder": builder, "kwargs": _encode_kwargs(kwargs)}


def recipe_of(path: str) -> dict:
    """Read the recipe out of a recording's ``header`` record.

    Raises ``ValueError`` when the header's schema is not
    :data:`~repro.recorder.events.SCHEMA_VERSION`, or its builder is not
    ``"fleet"``: such a recording could never replay byte-identically.
    """
    for line in read_lines(path):
        record = parse_line(line)
        if record.get("kind") == "header":
            header = decode_value(record.get("data", {}))
            schema = header.get("schema")
            if schema != SCHEMA_VERSION:
                raise ValueError(
                    f"recording {path} has schema {schema!r}; "
                    f"this reader expects schema {SCHEMA_VERSION}"
                )
            recipe = header.get("recipe")
            if not isinstance(recipe, dict):
                raise ValueError(f"recording {path} has no replayable recipe")
            _check_builder(recipe.get("builder"))
            return recipe
    raise ValueError(f"recording {path} has no header record")


def run_recipe(
    recipe: dict, recorder: FlightRecorder, timeout_s: float | None = None
) -> FleetReport:
    """Build and run the fleet a *recipe* describes, recording into
    *recorder* (header included).  Returns the run's report."""
    _check_builder(recipe.get("builder"))
    kwargs = _decode_kwargs(dict(recipe.get("kwargs", {})))
    if "count" not in kwargs:
        raise ValueError("recipe kwargs must include 'count'")
    recorder.write_header(recipe)
    # Recipe keys keep the legacy builder name for the negotiation
    # tunables (committed recordings replay unchanged).
    if "negotiation_config" in kwargs:
        kwargs["negotiation"] = kwargs.pop("negotiation_config")
    fleet = build_fleet(FleetSpec(recorder=recorder, **kwargs))
    if timeout_s is not None:
        return fleet.run(timeout_s=timeout_s)
    return fleet.run()


def record_fleet_run(
    path: str | None, timeout_s: float | None = None, **kwargs
) -> FleetReport:
    """Run :func:`~repro.mission.fleet.build_fleet` with a recorder.

    *kwargs* are the recipe arguments (``count`` required);
    they are embedded as the recording's recipe, so the file at *path*
    (or the in-memory recording) is replayable as-is.
    """
    return run_recipe(make_recipe("fleet", **kwargs), FlightRecorder(path), timeout_s=timeout_s)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a recording against a fresh run."""

    recording_path: str  #: the recording that was replayed
    fresh_path: str | None  #: where the fresh recording was written (if anywhere)
    identical: bool  #: deterministic streams byte-identical
    divergence: Divergence | None  #: first mismatch when not identical
    events: int  #: deterministic events compared
    report: FleetReport  #: the fresh run's fleet report

    def describe(self) -> str:
        """One-line human-readable verdict."""
        if self.identical:
            return (
                f"replay OK: {self.events} deterministic events byte-identical"
                f" ({self.recording_path})"
            )
        assert self.divergence is not None
        return f"replay DIVERGED: {self.divergence.describe()}"


def replay(
    path: str, out: str | None = None, timeout_s: float | None = None
) -> ReplayResult:
    """Re-drive the run recorded at *path* and byte-compare the streams.

    Reads the recipe from the recording's header, runs a fresh fleet
    with a fresh recorder (written to *out* when given), and compares
    the two deterministic event streams byte-for-byte — the
    replay-fidelity contract.  A recording of another schema, or with
    a line of unknown kind, raises ``ValueError`` before any fleet is
    built.
    """
    recipe = recipe_of(path)
    original = checked_lines(read_lines(path))
    fresh = FlightRecorder(out)
    report = run_recipe(recipe, fresh, timeout_s=timeout_s)
    divergence = first_divergence(original, fresh.lines)
    return ReplayResult(
        recording_path=path,
        fresh_path=out,
        identical=divergence is None,
        divergence=divergence,
        events=len(original),
        report=report,
    )
