"""The repository benchmark: end-to-end and per-layer performance of the
KML reproduction.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
