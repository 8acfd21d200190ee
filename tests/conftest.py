"""Fixtures shared by the test modules."""

import hashlib

import numpy as np
import pytest


@pytest.fixture
def lapack_log(monkeypatch):
    """Record (solver, sha256 of the operand) for every eigensolver or linear solve that reaches LAPACK."""
    log = []
    for name in ("eigh", "eigvalsh", "solve"):
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            log.append((_name, hashlib.sha256(np.ascontiguousarray(a)).hexdigest()))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log
