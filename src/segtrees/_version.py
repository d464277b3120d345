__version__ = "0.17.0"
