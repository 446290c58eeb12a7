"""Toolkit for larvae detection datasets: annotation handling, image
preprocessing, IoU-based evaluation, count extrapolation and growth-model
fitting."""

__version__ = "0.1.0"
