"""artinhexa: exact symbolic toolkit for Artin 3-presentations of the
trivial group from integer fillings of the hexatangle, and the
hyperbolicity classification of closed pure 3-braids."""

__version__ = "0.1.0"
