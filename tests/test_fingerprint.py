from tests import fingerprint


def test_the_cli_part_of_the_fingerprint_is_the_same_on_every_run():
    # trees are compared by their digests, so one tree must always give the
    # same digest; the cli part is the cheapest to compute
    first = fingerprint.cli_parts()
    assert sorted(first) == ["cli", "reports"]
    assert all(len(digest) == 64 for digest in first.values())
    assert fingerprint.cli_parts() == first
