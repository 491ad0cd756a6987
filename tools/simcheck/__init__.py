"""simcheck: AST-grounded semantic analyzer for the simulator's
determinism and snapshot contracts (DESIGN.md section 15).

Run as a package: python3 tools/simcheck -p build [paths...]
"""

__version__ = "1.0"
