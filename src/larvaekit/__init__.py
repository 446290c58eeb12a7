"""Toolkit for larvae detection datasets: annotation handling, image
preprocessing, IoU-based evaluation, count extrapolation and growth-model
fitting."""

__version__ = "0.1.0"

# The choices and defaults the command line offers. They live here, in a
# module that loads nothing, so building the parser runs no library
# module; each library module imports the ones it checks against.
ENLARGE_MODES = ("literal", "normalize")
AGGREGATIONS = ("global", "per_image_mean")
AP_METHODS = ("envelope", "101point")
GROUP_FIELDS = ("day_label", "density_group")
DEFAULT_VOLUME_FACTOR = 16.6
