"""Scaling-method registry tests."""

import pytest

from repro.api import (
    BUILTIN_METHODS,
    ScalingMethod,
    get_method,
    is_registered,
    list_methods,
    register_method,
    registered_names,
    unregister_method,
)


def test_builtins_are_registered_in_table_order():
    assert BUILTIN_METHODS == ("cvs", "dscale", "gscale")
    assert registered_names()[:3] == BUILTIN_METHODS
    for name in BUILTIN_METHODS:
        method = get_method(name)
        assert method.name == name
        assert method.multi_rail  # all paper algorithms are rail-aware


def test_get_method_rejects_unknown_name():
    with pytest.raises(ValueError, match="method"):
        get_method("warp")


def test_register_and_unregister_custom_method():
    method = ScalingMethod("custom_noop", lambda state, config: None,
                           multi_rail=False)
    register_method(method)
    try:
        assert is_registered("custom_noop")
        assert get_method("custom_noop") is method
        assert method in list_methods()
    finally:
        unregister_method("custom_noop")
    assert not is_registered("custom_noop")


def test_duplicate_registration_needs_replace():
    method = ScalingMethod("dup_method", lambda state, config: None)
    register_method(method)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_method(
                ScalingMethod("dup_method", lambda state, config: None)
            )
        replacement = ScalingMethod("dup_method",
                                    lambda state, config: None)
        register_method(replacement, replace=True)
        assert get_method("dup_method") is replacement
    finally:
        unregister_method("dup_method")


def test_builtins_cannot_be_unregistered():
    with pytest.raises(ValueError, match="built-in"):
        unregister_method("gscale")
    assert is_registered("gscale")


def test_nameless_method_rejected():
    with pytest.raises(ValueError, match="name"):
        register_method(ScalingMethod("", lambda state, config: None))
