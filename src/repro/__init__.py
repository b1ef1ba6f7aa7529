"""repro — Human-Drone Communication in Collaborative Environments.

A full reproduction of Doran et al., "Conceptual Design of Human-Drone
Communication in Collaborative Environments" (DSN 2020): the bidirectional
communication language between low-cost agricultural drones and humans —
LED-ring signalling, communicative flight patterns, marshalling-sign
recognition via SAX — together with every substrate the paper's system
needs (drone simulator, vision stack, SAX time-series machinery, the
negotiation protocol and the orchard mission layer).

Quickstart
----------
One trap-reading mission is a one-mission fleet:

>>> from repro.mission import FleetSpec, build_fleet
>>> fleet = build_fleet(
...     FleetSpec(count=1, base_seed=1, perception="oracle", winds=(), lightings=())
... )
>>> report = fleet.run().reports["mission_00"]
>>> report.traps_read >= 1
True

Subpackages
-----------
``repro.geometry``    vectors, rotations, pin-hole camera
``repro.vision``      NumPy image stack: threshold, contours, signatures
``repro.sax``         Symbolic Aggregate approXimation + matching
``repro.simulation``  world, wind, battery, multirotor dynamics
``repro.signaling``   the 10-LED all-round ring and danger semantics
``repro.drone``       flight patterns, controllers, pattern classifier
``repro.human``       personas, poses, marshalling signs, rendering
``repro.recognition`` the frame → SAX → sign pipeline and baselines
``repro.protocol``    the Figure-3 negotiation and the safety monitor
``repro.userstories`` requirements derivation and traceability
``repro.mission``     orchard generation, route planning, execution, fleets
``repro.recorder``    flight recorder, replay and diff
``repro.testing``     reference implementations and the long-tail fuzz
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
