"""The repository's benchmark: workloads, output checks and outside-in tracing.

Entry point: ``python3 perfbench/run.py``; see perfbench/README.md.
"""
