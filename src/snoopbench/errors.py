"""Exception hierarchy. Everything raised on purpose derives from SnoopbenchError."""


class SnoopbenchError(Exception):
    """Base class for all domain errors."""


class MalformedModuleError(SnoopbenchError):
    """IR module text has unbalanced top-level braces."""


class CorpusFormatError(SnoopbenchError):
    """A corpus file record is malformed, has a stale or duplicate id, or breaks the file's cut."""


class VocabFormatError(SnoopbenchError):
    """A vocabulary file does not match its format; message names file and line."""


class EmptyInputError(SnoopbenchError):
    """An operation that needs at least one record got none."""


class EmptyClassifierSetError(SnoopbenchError):
    """No labeled samples matched the requested CWE."""


class InsufficientPoolError(SnoopbenchError):
    """Embedding pool is smaller than the classifier set it must absorb."""


class SplitTooSmallError(SnoopbenchError):
    """Train/validation split would leave one side empty."""


class ManifestInvalidError(SnoopbenchError):
    """A dataset manifest violates one of its invariants; message names it."""


class EmbeddingConfigError(SnoopbenchError):
    """Invalid word2vec configuration or degenerate training corpus."""


class EmbeddingFormatError(SnoopbenchError):
    """An embedding file does not match its documented format; message names file and line."""


class VocabLookupError(SnoopbenchError):
    """Token or sample id not present in the model."""


class ModelConstructionError(SnoopbenchError):
    """Classifier architecture cannot be assembled from the given parts."""


class BatchAssemblyError(SnoopbenchError):
    """A sample cannot be batched (zero length or over the length cap)."""


class DivergenceError(SnoopbenchError):
    """Training produced a non-finite loss; message names epoch and batch."""


class EmptyDatasetError(SnoopbenchError):
    """Evaluation dataset is empty."""


class PairingError(SnoopbenchError):
    """Paired runs disagree on classifier train/validation membership."""


class GridError(SnoopbenchError):
    """A grid cell failed; message carries the grid coordinates."""
