"""Reference community matcher (oracle for :mod:`repro.kernels.matching`)."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from repro.community.tracking import CommunityState

__all__ = ["match_communities"]


def match_communities(
    raw: Mapping[int, frozenset[int]],
    prev_members: Mapping[int, frozenset[int]],
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter]]:
    """:func:`_match_python` behind the signature of ``match_communities_csr``.

    Wraps each previous member set in a :class:`CommunityState` carrying
    its lineage id, which is all the reference reads from a state.
    """
    prev_states = {
        lin: CommunityState(
            lineage=lin,
            time=0.0,
            members=members,
            internal_edges=0,
            degree_sum=0,
            similarity=float("nan"),
        )
        for lin, members in prev_members.items()
    }
    return _match_python(raw, prev_states)


def _match_python(
    raw: Mapping[int, frozenset[int]],
    prev_states: Mapping[int, CommunityState],
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter]]:
    """Reference matcher: per-label best previous lineage plus overlap counts.

    The kernel equivalent is
    :func:`repro.kernels.matching.match_communities_csr`; both resolve
    equal-similarity parents to the smallest lineage id.
    """
    node_lineage = {
        node: state.lineage for state in prev_states.values() for node in state.members
    }
    # Overlap counts between each new community and each previous lineage.
    overlaps: dict[int, Counter] = {}
    for label, members in raw.items():
        counter: Counter = Counter()
        for node in members:
            lin = node_lineage.get(node)
            if lin is not None:
                counter[lin] += 1
        overlaps[label] = counter

    parent: dict[int, tuple[int, float] | None] = {}
    for label, members in raw.items():
        best: tuple[int, float] | None = None
        # Ascending lineage order: similarity ties resolve to the smallest
        # lineage id, independent of Counter insertion order.
        for lin in sorted(overlaps[label]):
            inter = overlaps[label][lin]
            prev_members = prev_states[lin].members
            sim = inter / (len(members) + len(prev_members) - inter)
            if best is None or sim > best[1]:
                best = (lin, sim)
        parent[label] = best
    return parent, overlaps
