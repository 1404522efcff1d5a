"""Exact workbench for one-dimensional stable local ring models."""

__version__ = "0.1.0"
