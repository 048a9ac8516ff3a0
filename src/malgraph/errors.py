"""Exception types shared across the package."""


class MalgraphError(Exception):
    """Base class for all errors raised by this package."""


class MalformedLine(MalgraphError):
    """A line that starts like an instruction but irrecoverably violates the grammar."""

    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        self.detail = detail
        msg = f"malformed instruction at line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class EmptyUnit(MalgraphError):
    """Parsed input contained no instructions."""


class EmptyGraph(MalgraphError):
    """Operation requires a graph with at least one node."""


class EmptyDataset(MalgraphError):
    """Operation requires at least one graph."""


class VocabMismatch(MalgraphError):
    """A sample's vocabulary index is out of range for the model."""


class CacheMismatch(MalgraphError):
    """Backward pass received a cache that does not belong to these params/labels."""


class ShapeMismatch(MalgraphError):
    """A tensor's shape is inconsistent with the architecture."""


class TooFewSamples(MalgraphError):
    """Dataset too small to split or train on."""


class SingleClass(MalgraphError):
    """AUROC is undefined when only one label class is present."""


class NonFiniteScores(MalgraphError):
    """A model produced a score or pooled value that is not a finite number."""


class VersionMismatch(MalgraphError):
    """A persisted file declares an unsupported format version."""


class GraphFormatError(MalgraphError):
    """A graph JSON document is structurally invalid."""


class MalformedFile(MalgraphError):
    """A persisted file could not be parsed; message names the path."""

    def __init__(self, path, detail: str = ""):
        self.path = str(path)
        msg = f"cannot read {path}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IoError(MalgraphError):
    """Filesystem failure while emitting generated output."""
