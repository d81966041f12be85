"""The md5 of the ``measure`` and ``plot`` corpora of ``tools/byte_identity.py``.

An intended change to Monte Carlo or SVG output changes a digest here; record the new
one, with its ``cmp`` summary against the parent tree.  The digests rest on numpy's PCG64
stream and CPython's float repr; they were taken with numpy 2.4.6 on CPython 3.11.7.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"

DIGESTS = {
    "measure_corpus": "8555e8aae3a42459d64a99c4cd303dbb",
    "plot_md5": "a4317da6cb9c8557784668da8d435c19",
}


@pytest.fixture(scope="module")
def byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("corpus", sorted(DIGESTS))
def test_corpus_digest(byte_identity, corpus):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        getattr(byte_identity, corpus)()
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == DIGESTS[corpus]
