"""The parity-test manifest backing rule RPL005.

The library has one implementation of every graph algorithm (the CSR
kernels), pinned bit-for-bit against the dict/set oracles in
``tests/oracles/`` by :data:`PARITY_TEST_FILE`.  A function that takes a
``backend=`` switch would reintroduce a second code path, so it must
either be **covered** — mapped here to the parity test that pins every
implementation it dispatches to — or **exempt** with a written reason.
Both tables are empty today: RPL005 flags any ``backend=``-accepting
function, so a new dispatcher cannot land without a parity test (or an
argued exemption).

``tests/test_devtools_lint.py`` cross-checks this file: every covered
entry's test reference must actually occur in the parity suite, so the
manifest cannot silently rot.
"""

from __future__ import annotations

__all__ = [
    "ENGINE_EQUIVALENCE_COVERED",
    "ENGINE_EQUIVALENCE_TEST_FILE",
    "PARITY_COVERED",
    "PARITY_EXEMPT",
    "PARITY_TEST_FILE",
]

# The test module the coverage references point into.
PARITY_TEST_FILE = "tests/test_kernels_parity.py"

# Dispatcher qualname -> the parity test function that pins every backend.
PARITY_COVERED: dict[str, str] = {}

# Generation-engine dispatchers (``engine="legacy"|"fast"``).  The two
# engines draw random numbers in different orders, so the contract is
# *distribution* equivalence (degree tail, clustering, burstiness) plus
# per-engine byte determinism — not bit parity.  RPL005 flags any new
# string-dispatch ``engine=`` function missing from this table, and
# ``tests/test_devtools_lint.py`` checks each referenced test exists.
ENGINE_EQUIVALENCE_TEST_FILE = "tests/test_gen_fast.py"

ENGINE_EQUIVALENCE_COVERED: dict[str, str] = {
    "repro.gen.dispatch.generate": "test_engines_distribution_equivalent",
    "repro.gen.dispatch.generate_store": "test_store_digest_matches_stream_digest",
}

# Dispatcher qualname -> why it needs no parity test of its own.
PARITY_EXEMPT: dict[str, str] = {}
