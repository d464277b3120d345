__version__ = "0.14.0"
