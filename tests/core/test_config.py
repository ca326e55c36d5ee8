"""``DelegationConfig``: one frozen record of the delegation settings."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.core.config import FAST, PAPER, DelegationConfig
from repro.world import AnceptionWorld


def test_config_is_frozen():
    with pytest.raises(FrozenInstanceError):
        PAPER.cvms = 2


def test_paper_is_the_library_default():
    assert PAPER == DelegationConfig()
    assert AnceptionWorld().anception.config == PAPER


def test_fast_turns_on_cache_and_both_windows():
    changed = {f.name for f in fields(DelegationConfig)
               if getattr(FAST, f.name) != getattr(PAPER, f.name)}
    assert changed == {"read_cache", "async_delegation", "binder_ring"}


def test_world_overrides_replace_single_fields():
    world = AnceptionWorld(config=FAST, cvms=2)
    assert world.anception.config == replace(FAST, cvms=2)
    assert len(world.pool) == 2
    assert world.anception.write_behind is not None


def test_unknown_override_is_a_type_error():
    # ``write_behind`` was the runners' old spelling of async_delegation.
    with pytest.raises(TypeError):
        AnceptionWorld(write_behind=True)
