"""Empty: the package has no max-flow code.

The certificate route runs on the bipartite double cover (``oracle``), and the
tests' lower-bound flow reference runs on networkx's ``maximum_flow``
(``tests/helpers.py``). This module stays only because the benchmark imports
every module of its layer list by name; nothing in the package or the tests
imports it. ROADMAP item 1b deletes it together with that layer entry.
"""
