"""The README quotes the code: its kind lists name every kind the code
declares, so a new kind that is added to its table and not to the README
fails here, and its chunk size is telemetry's."""

import re
from pathlib import Path

import pytest

from holonsim import agents, dsp_transforms, environment, telemetry

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


@pytest.mark.parametrize("where,names,table", [
    # the comments in the scenario example, "a | b | c"
    (r"kind: composer +# (.*)", r"\w+", agents.AGENT_KINDS),
    (r"kind: band_noise +# (.*)", r"\w+", environment._SOURCE_KINDS),
    # the introduction's list, by the names disrupt_start logs
    (r"transform it \(([^)]*)\)", r"`(\w+)`", dsp_transforms.TRANSFORMS),
], ids=["agents", "sources", "transforms"])
def test_the_readme_lists_every_kind(where, names, table):
    found = re.search(where, README)
    assert found is not None, f"README has no list matching {where!r}"
    assert set(re.findall(names, found.group(1))) == set(table)


def test_the_readme_quotes_the_chunk_size():
    found = re.findall(r"worked (\d+) frames at a time", README)
    assert found == [str(telemetry.CSV_CHUNK_ROWS)]
