"""Dataset ingestion (CSV and libsvm) plus seeded synthetic problem generators.

Both readers return the data as ``(A, labels)`` where the columns of ``A``
are the per-sample feature vectors, i.e. ``A`` has shape
``(n_features, n_samples)``.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadLabel, EmptyDataset, ParseError

__all__ = [
    "load_dataset",
    "normalize_binary_labels",
    "make_logistic_dataset",
    "make_quadratic_matrix",
]

#: Most features a problem may have (a libsvm index, CSV columns, a builtin's n): one n x n Hessian is 800 MB here.
MAX_FEATURES = 10_000


def normalize_binary_labels(labels) -> np.ndarray:
    """Map {0, 1} labels onto {-1, +1}; values already in {-1, +1} pass through.

    Anything else raises :class:`BadLabel`.
    """
    labels = np.asarray(labels, dtype=float)
    out = labels.copy()
    out[labels == 0.0] = -1.0
    bad = ~np.isin(out, (-1.0, 1.0))
    if bad.any():
        raise BadLabel(f"cannot map label {float(labels[bad][0])!r} onto {{-1, +1}}")
    return out


def _load_csv(path: str):
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ParseError(f"non-numeric field in {line!r}", line=lineno) from None
            if width is None:
                width = len(values)
                if not 2 <= width <= MAX_FEATURES + 1:
                    raise ParseError(f"need 1 to {MAX_FEATURES} feature columns plus a label, found {width - 1}",
                                     line=lineno)
            elif len(values) != width:
                raise ParseError(
                    f"expected {width} columns, found {len(values)}", line=lineno
                )
            rows.append(values)
    if not rows:
        raise EmptyDataset(f"no data rows in {path}")
    data = np.asarray(rows, dtype=float)
    A = data[:, :-1].T.copy()
    labels = data[:, -1].copy()
    return A, labels


def _load_libsvm(path: str):
    samples: list[dict[int, float]] = []
    labels: list[float] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"bad label field {tokens[0]!r}", line=lineno) from None
            entries: dict[int, float] = {}
            for token in tokens[1:]:
                idx_str, _, val_str = token.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(f"bad index:value token {token!r}", line=lineno) from None
                if idx < 1:
                    raise ParseError(f"libsvm indices are 1-based, got {idx}", line=lineno)
                if idx > MAX_FEATURES:
                    raise ParseError(f"feature index {idx} exceeds the limit of {MAX_FEATURES}", line=lineno)
                if idx in entries:
                    raise ParseError(f"feature index {idx} is repeated", line=lineno)
                entries[idx] = val
            if entries:
                max_index = max(max_index, max(entries))
            labels.append(label)
            samples.append(entries)
    if not samples:
        raise EmptyDataset(f"no data rows in {path}")
    if max_index < 1:
        raise EmptyDataset(f"no feature values in {path}")
    A = np.zeros((max_index, len(samples)))
    for j, entries in enumerate(samples):
        for idx, val in entries.items():
            A[idx - 1, j] = val
    return A, np.asarray(labels, dtype=float)


#: Dataset format -> the reader of its ``(A, labels)``; the first is the default format.
READERS = {"csv": _load_csv, "libsvm": _load_libsvm}
DEFAULT_FORMAT = next(iter(READERS))


def load_dataset(path: str, fmt: str = DEFAULT_FORMAT, link: str | None = None):
    """Read a dataset file into a dense ``(A, labels)`` pair.

    ``csv`` expects a numeric matrix with the label in the last column;
    ``libsvm`` the standard sparse ``label idx:val ...`` lines with 1-based
    indices, in any order but each once per line, densified here. When
    ``link == "logistic"`` the labels are mapped onto {-1, +1} (0/1 inputs
    remapped).
    """
    if fmt not in READERS:
        raise ValueError(f"unknown dataset format {fmt!r}; choose {' or '.join(READERS)}")
    A, labels = READERS[fmt](path)
    if link == "logistic":
        labels = normalize_binary_labels(labels)
    return A, labels


def make_logistic_dataset(n: int, m: int, seed: int = 0):
    """Seeded synthetic binary-classification data with unit-scale columns.

    Features are Gaussian scaled by ``1/sqrt(n)`` so the data matrix has
    O(1) singular values regardless of size; labels are the signs of a noisy
    linear score, nudged off zero so every label is exactly +/-1.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) / np.sqrt(n)
    w = rng.standard_normal(n)
    score = A.T @ w + 0.1 * rng.standard_normal(m)
    labels = np.where(score >= 0.0, 1.0, -1.0)
    return A, labels


def make_quadratic_matrix(n: int, seed: int = 0) -> np.ndarray:
    """Seeded SPD matrix with eigenvalues in roughly [1, 3] for the builtin quadratic."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = B @ B.T + np.eye(n)
    return 0.5 * (Q + Q.T)

