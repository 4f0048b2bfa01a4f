"""Session reconstruction and multidevice usage analytics for mobile app
event logs: Allen-relation interval classification, timeout-window session
construction, prototype-based temporal pattern mining, descriptive usage
statistics, and robust bootstrap comparisons.
"""

from .intervals import AllenRelation, Interval, classify

__all__ = [
    "AllenRelation",
    "Interval",
    "classify",
]
