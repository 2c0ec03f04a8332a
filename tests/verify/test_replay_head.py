"""The replay-head grammar shared by verify and resil specs:
``scenario[@backend][/engine]:seed[:rest]``."""

import pytest

from repro.resil.runner import ResilSpec
from repro.verify.runner import CaseSpec

SPECS = pytest.mark.parametrize("cls", [CaseSpec, ResilSpec],
                                ids=lambda c: c.__name__)


@SPECS
@pytest.mark.parametrize("alias", ["batch", "event"])
@pytest.mark.parametrize("head", ["storm", "storm@cuda"])
def test_engine_alias_parses_to_the_unqualified_spec(cls, alias, head):
    # replay strings printed while a second engine existed still replay
    bare = cls.parse(f"{head}:3")
    spec = cls.parse(f"{head}/{alias}:3")
    assert spec == bare
    assert spec.replay == bare.replay == f"{head}:3:"


@SPECS
@pytest.mark.parametrize("raw", ["storm/vector:3", "@:3", "scen@:3",
                                 "storm:x", "storm"])
def test_bad_head_raises_naming_the_spec(cls, raw):
    with pytest.raises(ValueError) as ei:
        cls.parse(raw)
    assert repr(raw) in str(ei.value)
