"""Golden recordings: every spec the serve daemon accepts, pinned.

Each spec is recorded at perfbench's tiny fidelity (2000 refs per
iteration, scale 1/256, 2 iterations, seed 0) and compared with pinned
values: the artifact's content digest (event-log CRC plus every batch's
payload CRC), a sha256 of the event list, and the run-level meta fields.
Artifacts are keyed by their :class:`~repro.engine.spec.RunSpec`, not by
the code that recorded them, so a change that alters a recording lets a
cache serve the old one. A speed-up of the apps, the runtime, the event
log or the trace writer must leave every value here as it is.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps import APPLICATIONS, VARIANT_OF
from repro.engine.engine import PipelineEngine
from repro.engine.spec import VARIANT_PREFIX, WORKLOAD_PREFIX, RunSpec
from repro.workloads.families import FAMILIES

TINY = dict(refs_per_iteration=2000, scale=1 / 256, n_iterations=2, seed=0)

#: meta.json fields pinned next to the digests, in this order
META_FIELDS = ("refs", "n_batches", "n_events", "footprint_bytes",
               "instructions", "dependent_refs")

#: app -> (content digest, sha256 of the event list, META_FIELDS values)
GOLDEN = {
    "cam": (
        "sha256:e85af33ccfae4085075d3ca4d9e6d2b7ddc62b66d7d46d0118a17de978299f6a",
        "e2960025b86887d56d273b64f7d0d7f6f5de9ed92797bf5e5480d5615f2428d1",
        (4137, 64, 210, 2344232, 360000, 0)),
    "gtc": (
        "sha256:9282cf9eac521f720d84308745fb67a25763ab3c20cb582731210ec21e658639",
        "423752ebac0c73d8dcc94a17da3750a95ac67e9302aa55868d67ca14bb05e3b2",
        (3998, 12, 52, 807104, 600000, 0)),
    "nek5000": (
        "sha256:80a96f15680375c8027c72acb0a031dabf4d5f358f8c283df7645a5008dbb1a9",
        "6a6eef16410c8b21372f5aa8bc6604c3febbfb4328e87a52add52fb3f884dfa0",
        (4152, 18, 76, 3453808, 560000, 0)),
    "s3d": (
        "sha256:cb4b73a30ac12d5d256d694bccfdac84758d8032113cf44017604ef9e57d98f4",
        "ec666a63d2bcf9dd220c9097fc59688ccb08b9e33f97d841e8a1078b08009a90",
        (4002, 16, 62, 1947888, 600000, 0)),
    "variant:cam": (
        "sha256:a932ef03ff0081e7fd5b7c0a69811ad0c10d65dd02c1dfc2e94ab126f3e448c9",
        "15b855791886fdb491b79fbed219a51c2933bb30d97166b5e0871e477858cfc9",
        (4190, 64, 210, 7255272, 360000, 0)),
    "variant:gtc": (
        "sha256:03a8567ca6cb48106f567e303db64a5e3ef0724ad2780be91685eb229f69e590",
        "ea9e56eba928a7383905373fbb322a93b71040d7763672c97c631c0d8edefc0d",
        (3998, 12, 52, 2050992, 600000, 0)),
    "variant:nek5000": (
        "sha256:95762d0713ac1134384948601cb1008c65371928ea692f3ea0249f7271fcee2a",
        "bc2c274261416a8ecbc0f886c94e79465ef5eed74db80195e1f84c2fe97540e9",
        (4070, 18, 76, 5168312, 560000, 0)),
    "variant:s3d": (
        "sha256:849324631f5578cf2c50fa6453f6e08e0a5cf016b971a880a3d9374654a905f8",
        "f791f8d21b85f168804e4fb2d835b415650af5eb23d49fbd1ad59eb869c94158",
        (4002, 16, 62, 15532808, 600000, 0)),
    "workload:checkpoint": (
        "sha256:f26523b3f6333324192f279203f571945e4f841f4509cdcdb59a81946de5cb5f",
        "74358dab820c3db2491e8db219a563ca77ad7ac38e91836627b3972d3aa8336c",
        (3193, 4, 18, 2384000, 400000, 0)),
    "workload:graph": (
        "sha256:543605cc150068f95f6cbcf39db5a8de6b2aff0ddc552d405900a30028d402b9",
        "7003027236c3f7c3adb06ace1c7e141ab31a946fdb8b63b46da494cf93fabca7",
        (4904, 4, 17, 2637936, 400000, 0)),
    "workload:kvcache": (
        "sha256:b7edd7f6a393a3282368661218499d0b5340623d0eb3704a808a0d2fdd74f0eb",
        "97f51d0158769c28a18b2c32da1826d4bfd0c24ad0e5100060433f9e0d7caf8e",
        (4000, 6, 22, 2088104, 400000, 0)),
}


def test_every_accepted_spec_is_pinned():
    accepted = (set(APPLICATIONS)
                | {VARIANT_PREFIX + a for a in VARIANT_OF}
                | {WORKLOAD_PREFIX + w for w in FAMILIES})
    assert set(GOLDEN) == accepted


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_recording_matches_golden(tmp_path, app):
    art = PipelineEngine(root=tmp_path).record(RunSpec(app, **TINY))
    events = json.dumps(art.events(), separators=(",", ":")).encode()
    got = (art.content_digest(), hashlib.sha256(events).hexdigest(),
           tuple(art.meta[f] for f in META_FIELDS))
    assert got == GOLDEN[app]
