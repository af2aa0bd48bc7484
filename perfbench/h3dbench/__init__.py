"""Helpers of the H3DFact end-to-end and per-layer benchmark.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
