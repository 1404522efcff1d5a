"""Exact workbench for one-dimensional stable local ring models."""

__version__ = "0.1.0"


class Payload(dict):
    """A check result: the dict the CLI prints, whose keys also read as attributes.

    The benchmark's tracer observes ``ringlab.stable_ring_report`` and
    ``idealization.is_stable_ideal`` from outside the package and reads
    their results by attribute (``report.ideal_count``, ``verdict.stable``);
    the program itself reads keys.
    """

    def __getattr__(self, key: str):
        try:
            return self[key]
        except KeyError:
            raise AttributeError(key) from None
