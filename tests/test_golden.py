"""Every subcommand still writes the recorded bytes (see ``golden.py``)."""

import json

import pytest

import golden

RECORDED = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    golden.build_inputs(root)
    return root


def test_every_case_is_recorded():
    assert sorted(golden.CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_the_recorded_digests(inputs, name):
    assert golden.run_case(inputs, name) == RECORDED.get(name)
