"""Reference implementations that fast paths in ``src/`` are checked against.

Each module keeps the straightforward version of something the program
now computes a faster way, so equivalence tests compare against an
independent statement of the semantics rather than against the previous
fast path.
"""
