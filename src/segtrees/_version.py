__version__ = "0.16.0"
