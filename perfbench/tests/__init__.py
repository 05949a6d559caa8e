"""Tests of the benchmark's own helpers."""
