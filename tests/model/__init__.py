"""Section 2 of the paper, written slowly and obviously: the test oracle.

``paths`` walks tree paths and link sides from ``tree.parent``;
``rounds`` expands the round API into transfers, charges and delivers
them, and checks live rounds as a run-context auditor; ``bounds`` gives
every registered lower bound as its formula over enumerated link sides;
``tasks`` computes task outputs with sets, dicts and a union-find.  No
module imports a production kernel (``test_independence.py``).
"""
