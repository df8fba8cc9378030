"""Selecting NFAs — the ``N_s`` component of an MFA (Section 4).

A selecting NFA is a standard NFA over element labels (child steps) with
ε-transitions, extended with a partial annotation map ``λ`` from states to
AFA entry points (filter gates): a run may pass through an annotated state
at tree node ``n`` only if the referenced AFA evaluates to true at ``n``.

States are dense integers; transitions are per-state label maps.  The
special label :data:`WILDCARD` matches any element tag.
"""

from __future__ import annotations

from ..errors import AutomatonError
from .afa import WILDCARD


class NFA:
    """A selecting NFA with ε-moves and filter annotations."""

    def __init__(self) -> None:
        self.trans: list[dict[str, set[int]]] = []
        self.eps: list[set[int]] = []
        #: λ: state -> AFA entry-state id (into the owning MFA's pool).
        self.ann: dict[int, int] = {}
        self.start: int = -1
        self.finals: set[int] = set()
        self._closure: list[frozenset[int]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_state(self) -> int:
        """Add a fresh state and return its id."""
        self.trans.append({})
        self.eps.append(set())
        self._closure = None
        return len(self.trans) - 1

    def add_edge(self, source: int, label: str, target: int) -> None:
        """Add a labelled (child-step) transition."""
        self.trans[source].setdefault(label, set()).add(target)

    def add_eps(self, source: int, target: int) -> None:
        """Add an ε-transition."""
        self.eps[source].add(target)
        self._closure = None

    def annotate(self, state: int, afa_entry: int) -> None:
        """Set ``λ(state)``; the caller merges pre-existing annotations."""
        self.ann[state] = afa_entry

    @property
    def num_states(self) -> int:
        return len(self.trans)

    def num_transitions(self) -> int:
        """Labelled plus ε transitions."""
        labelled = sum(
            len(targets) for state in self.trans for targets in state.values()
        )
        return labelled + sum(len(e) for e in self.eps)

    def size(self) -> int:
        """States + transitions (the |N_s| contribution to |M|)."""
        return self.num_states + self.num_transitions()

    def validate(self) -> None:
        """Structural sanity checks."""
        n = self.num_states
        if not (0 <= self.start < n):
            raise AutomatonError("NFA start state not set")
        for final in self.finals:
            if not (0 <= final < n):
                raise AutomatonError(f"dangling final state {final}")
        for source, labelled in enumerate(self.trans):
            for targets in labelled.values():
                for target in targets:
                    if not (0 <= target < n):
                        raise AutomatonError(
                            f"dangling transition {source} -> {target}"
                        )

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def eps_closure_of(self, state: int) -> frozenset[int]:
        """Transitive ε-closure of a single state (cached)."""
        if self._closure is None:
            self._compute_closures()
        assert self._closure is not None
        return self._closure[state]

    def eps_closure(self, states) -> frozenset[int]:
        """Transitive ε-closure of a state set."""
        result: set[int] = set()
        for state in states:
            result |= self.eps_closure_of(state)
        return frozenset(result)

    def step_targets(self, state: int, label: str) -> set[int]:
        """Direct (non-ε-closed) successors of one state on ``label``."""
        labelled = self.trans[state]
        result: set[int] = set()
        targets = labelled.get(label)
        if targets:
            result |= targets
        wild = labelled.get(WILDCARD)
        if wild:
            result |= wild
        return result

    def _compute_closures(self) -> None:
        n = self.num_states
        closures: list[frozenset[int]] = [frozenset()] * n
        # Iterative DFS with memoisation; ε-cycles handled by visiting the
        # underlying SCC together (simple worklist fixpoint is fine at the
        # sizes we build).
        sets: list[set[int]] = [set({i}) | self.eps[i] for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                current = sets[i]
                add: set[int] = set()
                for j in list(current):
                    add |= sets[j]
                if not add <= current:
                    current |= add
                    changed = True
        for i in range(n):
            closures[i] = frozenset(sets[i])
        self._closure = closures

    def alphabet(self) -> set[str]:
        """All labels appearing on transitions (including the wildcard)."""
        labels: set[str] = set()
        for labelled in self.trans:
            labels.update(labelled)
        return labels
