"""Benchmark for the ringstruct engine, measured from outside the package.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
