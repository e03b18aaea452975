import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count(module, name)`` wraps ``module.name`` in every muchan module
    namespace that binds it (``from .channels import choi_of`` gives the
    importing module its own binding) and returns the list each call is
    appended to."""

    def count(module, name):
        inner = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "muchan":
                continue
            for attr, val in list(vars(mod).items()):
                if val is inner:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return count
