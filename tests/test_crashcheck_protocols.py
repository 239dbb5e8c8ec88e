"""Full crash checks over the five durable protocols.

Every protocol must come back clean — its acked durability promises
hold in every reachable crash state — and must explore at least 500
deduplicated persisted states, the coverage floor that makes a clean
report mean something.
"""

import pytest

from repro.crashcheck import PROTOCOLS, run_checker

#: The acceptance floor: a protocol run explores at least this many
#: unique persisted states.
MIN_STATES = 500


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_protocol_is_crash_consistent(name, tmp_path):
    report = run_checker(PROTOCOLS[name], str(tmp_path))
    detail = "; ".join(f"{v.message} (schedule {v.schedule})"
                       for v in report.violations[:3])
    assert report.clean, f"{name}: {detail}"
    assert not report.truncated
    assert report.n_unique_states >= MIN_STATES, (
        f"{name} explored only {report.n_unique_states} unique states")
    # every unique state went through the real recovery path
    assert report.n_recovered == report.n_unique_states


def test_registry_names_every_protocol():
    assert sorted(PROTOCOLS) == ["artifact", "fence", "journal", "queue",
                                 "tv4"]
    for name, spec in PROTOCOLS.items():
        assert spec.name == name
        assert spec.description
