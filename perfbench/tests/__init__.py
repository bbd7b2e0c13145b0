"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""
