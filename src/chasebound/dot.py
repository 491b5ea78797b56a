"""DOT export of a derivation: nodes are atoms, edges direct ancestry.

Edges belonging to the same trigger share a color; atoms of the same rank are
grouped on one level.  Atoms are labelled with the derivation's null names, as
in traces.
"""

from __future__ import annotations

from .engine import Derivation
from .terms import atom_sort_key, sorted_atoms

_PALETTE = (
    "#4a90d9", "#d0021b", "#f5a623", "#7ed321", "#9013fe", "#50e3c2",
    "#b8e986", "#bd10e0", "#8b572a", "#417505", "#9b9b9b", "#f8e71c",
)


def export_dot(derivation: Derivation) -> str:
    atoms = sorted(derivation.factbase,
                   key=lambda a: (derivation.atom_rank(a), atom_sort_key(a)))
    node_id = {a: f"n{i}" for i, a in enumerate(atoms)}
    lines = ["digraph derivation {", "  rankdir=BT;",
             '  node [shape=box, fontname="Helvetica"];']
    by_rank: dict[int, list] = {}
    for a in atoms:
        by_rank.setdefault(derivation.atom_rank(a), []).append(a)
    for rank in sorted(by_rank):
        group = by_rank[rank]
        for a in group:
            lines.append(f'  {node_id[a]} [label="{derivation.show(a)}\\nrank {rank}"];')
        members = "; ".join(node_id[a] for a in group)
        lines.append(f"  {{ rank=same; {members}; }}")
    for i, step in enumerate(derivation.steps):
        color = _PALETTE[i % len(_PALETTE)]
        rule = derivation.ruleset[step.trigger.rule_id]
        body_image = sorted_atoms(step.trigger.pi.apply(rule.body))
        for src in body_image:
            for dst in sorted_atoms(step.produced):
                lines.append(
                    f'  {node_id[src]} -> {node_id[dst]} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
