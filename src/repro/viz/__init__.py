"""Terminal visualisation: sparklines, histograms, bar charts, progress bars."""

from .ascii import bar_chart, histogram, progress_bar, sparkline

__all__ = ["sparkline", "histogram", "bar_chart", "progress_bar"]
