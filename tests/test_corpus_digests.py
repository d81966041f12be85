"""The md5 of corpora of ``tools/byte_identity.py``, run in process.

``measure``, ``plot`` and ``arith`` run whole; ``classify`` runs its first 1,000 commands,
``path`` its first 200 (then its closed paths), ``exact`` the torsion points and triples
of order up to 6, ``edge`` its first 100 locus edges, and ``refuse`` 50 of its 1,150 huge
or non-finite triples beside all of its other bad input, so each kind of bad input it pins,
with its exit code and ``error:`` line, is checked here too.  An intended change to CLI output changes a digest here; record the new
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

#: The arguments each corpus runs with, and the md5 of what it prints.
DIGESTS = {
    "measure_corpus": ((), "8555e8aae3a42459d64a99c4cd303dbb"),
    "plot_md5": ((), "a4317da6cb9c8557784668da8d435c19"),
    "classify_corpus": ((1000,), "4972b8b4a45ed9c86074f9e579d88bca"),
    "path_corpus": ((200,), "850f061119d9a68258ce11c11cc7c696"),
    "arith_corpus": ((), "bd200ac5ee4d8e8392e90fc1b4362e55"),
    "exact_corpus": ((6,), "74a3cc2c97101cf5b8fc08b93e515636"),
    "edge_corpus": ((100,), "0e2680651ffc9354ce989ccef1c2e06b"),
    "refuse_corpus": ((50,), "c4cefdb06716367b5e449ad49ab0ce48"),
}


@pytest.fixture(scope="module")
def byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("corpus", sorted(DIGESTS))
def test_corpus_digest(byte_identity, corpus):
    args, digest = DIGESTS[corpus]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        getattr(byte_identity, corpus)(*args)
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest
