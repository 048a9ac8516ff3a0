"""Exception types shared across the package, and its one file boundary.

Every file the package reads or writes goes through `read_file` and
`write_file`, and every directory it creates through `make_dir`, so each
read, write, create or parse failure ends in one `MalgraphError` whose
message names the path once.  Every file it reads is UTF-8 text, and
`read_file` is the one place that decodes it.
"""

from pathlib import Path


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
    """`bad` of a model's `total` scores, or their pooled values, are not finite."""

    def __init__(self, bad: int, total: int):
        self.bad, self.total = bad, total
        super().__init__(f"{bad} of {total} scores are not finite")


class VersionMismatch(MalgraphError):
    """A persisted file declares an unsupported format version."""


class GraphFormatError(MalgraphError):
    """A JSON document (graph, model or manifest) is structurally invalid."""


class MalformedFile(MalgraphError):
    """A persisted file could not be parsed; message names the path."""

    def __init__(self, path, detail: str = ""):
        self.path = str(path)
        msg = f"cannot read {path}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IoError(MalgraphError):
    """Filesystem failure while reading or writing a file; message names the path."""


def utf8_text(data: bytes) -> str:
    """`data` decoded as UTF-8; an undecodable byte is reported with its line number."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bad byte's line as str.splitlines numbers it: the valid prefix's
        # lines, with the bad byte standing in as one more character
        line_no = len((data[:e.start].decode("utf-8") + "?").splitlines())
        raise MalgraphError(f"line {line_no}: not UTF-8 text: {e}") from None


def read_file(path, parse):
    """`parse(text)` of the UTF-8 text at `path`.

    An OSError becomes IoError, and an undecodable byte or a MalgraphError
    raised by `parse` becomes MalformedFile; both read ``cannot read <path>: ...``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from None
    try:
        return parse(utf8_text(data))
    except MalgraphError as e:
        raise MalformedFile(path, str(e)) from None


def make_dir(path):
    """Create directory `path` and its parents; an OSError becomes IoError
    ``cannot create <path>: ...``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {path}: {e}") from None


def write_file(path, data: bytes):
    """Write `data` to `path`; an OSError becomes IoError ``cannot write <path>: ...``."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None
