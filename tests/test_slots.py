"""The element types are slotted frozen dataclasses: an instance has no
__dict__ and cannot be assigned to, however it was built (the validating
constructor, the builders that skip it, or Weight arithmetic), and it equals
and hashes as the validating constructor's result.  HalfPath's stored left
view is not part of its value."""

from dataclasses import FrozenInstanceError, fields

import pytest

from crystalpaths import HalfPath, LevelPath, SeqElement, Weight, left_path, right_path
from crystalpaths.halfpath import LEFT, RIGHT, _built
from crystalpaths.levelpath import ModElement, _built_mod, lp_split, path_from_window, u_lambda
from crystalpaths.seqreal import _built as _built_seq
from crystalpaths.star import star_mod
from crystalpaths.weights import classical, simple_root


def _validated(x):
    """x rebuilt by the validating constructors alone, from its fields."""
    if isinstance(x, HalfPath):
        return HalfPath(x.side, x.entries)
    if isinstance(x, ModElement):
        return ModElement(_validated(x.b1), _validated(x.lam), _validated(x.b2))
    if isinstance(x, SeqElement):
        return SeqElement(x.first_color, x.a)
    if isinstance(x, LevelPath):
        return LevelPath(x.m, x.l, x.entries)
    return Weight(x.a0, x.a1, x.d)


def _instances() -> dict:
    """how it was built -> instance, for each element type and route."""
    b = left_path({-3: 2, -1: -1})
    r = right_path({0: 1, 2: -2})
    e = lp_split(path_from_window(2, 0, -2, [1, -1, 2, -2]))
    s = SeqElement(1, (2, 1, 1))
    w = Weight(3, -1, 2)
    return dict([
        ("HalfPath", HalfPath(LEFT, ((-2, 1),))),
        ("left_path", b),
        ("right_path", r),
        ("ModElement", ModElement(b, classical(2, 1), r)),
        ("SeqElement", s),
        ("LevelPath", path_from_window(2, 0, -2, [1, -1, 2, -2])),
        ("Weight", w),
        ("_built left", _built(LEFT, ((-1, 4),), ((-1, 4),))),
        ("_built right", _built(RIGHT, ((1, 3),), ((-2, -3),))),
        ("HalfPath.power", b.power(0, 3)),
        ("HalfPath.top", b.top(1)[1]),
        ("HalfPath.flip", b.flip()),
        ("right HalfPath.power", r.power(1, 2)),
        ("_built_mod", _built_mod(b, classical(-1, 0), r)),
        ("ModElement.power", e.power(0, 2)),
        ("lp_split", e),
        ("star_mod", star_mod(u_lambda(classical(3, 0)).power(0, 2))),
        ("seqreal._built", _built_seq(0, [1, 2, 0, 0])),
        ("SeqElement.power", s.power(1, 2)),
        ("SeqElement.top", s.top(0)[1]),
        ("Weight +", w + simple_root(0)),
        ("Weight -", w - simple_root(1)),
        ("Weight neg", -w),
        ("Weight *", 3 * w),
        ("Weight.reflect", w.reflect(0)),
        ("ModElement.wt", e.wt()),
    ])


ROUTES = ["HalfPath", "left_path", "right_path", "ModElement", "SeqElement", "LevelPath",
          "Weight", "_built left", "_built right", "HalfPath.power", "HalfPath.top",
          "HalfPath.flip", "right HalfPath.power", "_built_mod", "ModElement.power",
          "lp_split", "star_mod", "seqreal._built", "SeqElement.power", "SeqElement.top",
          "Weight +", "Weight -", "Weight neg", "Weight *", "Weight.reflect", "ModElement.wt"]


def test_every_route_is_checked():
    assert sorted(_instances()) == sorted(ROUTES)


@pytest.mark.parametrize("how", ROUTES)
def test_instances_are_slotted_frozen_and_equal_their_validated_form(how):
    x = _instances()[how]
    assert x is not None
    assert not hasattr(x, "__dict__")
    for f in fields(x):
        with pytest.raises(FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
    # a name that is not a field raises too: FrozenInstanceError, or on
    # Python 3.11 a TypeError from the generated __setattr__, which names
    # the class as it was before slots were added
    with pytest.raises((FrozenInstanceError, TypeError)):
        x.extra = 1
    y = _validated(x)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_the_left_view_is_not_part_of_a_half_paths_value():
    # _left is a field with no init, repr or compare, so a path built with
    # another view still equals and hashes as the validated path
    (view,) = [f for f in fields(HalfPath) if f.name == "_left"]
    assert not (view.init or view.repr or view.compare or view.hash)
    b = left_path({-2: 1})
    odd = _built(LEFT, b.entries, ((-7, 5),))
    assert odd == b and hash(odd) == hash(b)
    assert "_left" not in repr(odd) and "-7" not in repr(odd)
    assert b._left == b.entries and right_path({1: 2})._left == ((-2, -2),)
