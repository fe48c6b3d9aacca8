"""Repository benchmark (see perfbench/run.py)."""
