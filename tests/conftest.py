import sys

import pytest

import muchan.analysis
import muchan.search
from muchan import NumericalError
from muchan.analysis import VerificationResult


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


@pytest.fixture
def demote_found(monkeypatch):
    """``demote(how)`` makes the decomposition of a found search isometry
    fail: its reader raises :class:`NumericalError` (``"reader"``), or its
    verification is not ok, at Choi residual 1 (``"residual"``).  The
    verification is patched where ``analysis._verified``, the one check of
    every returned decomposition, calls it."""

    def fail(*_):
        raise NumericalError("forced")

    def demote(how):
        if how == "reader":
            monkeypatch.setattr(muchan.search, "decomposition_from_isometry", fail)
        else:
            monkeypatch.setattr(muchan.analysis, "verify_decomposition",
                                lambda *_: VerificationResult(False, 1.0))

    return demote
