"""Sparse-native matrix assembly: fixed symbolic pattern + flat data.

Dense assembly writes every Newton iteration into an ``(n, n)`` matrix —
O(n^2) memory traffic no matter how sparse the circuit is.  The sparse
assembly path builds the *symbolic* sparsity structure exactly once at
compile time and then fills a flat nnz-length data array per iteration:

* :class:`SparsityPattern` deduplicates every stamp slot the compiled
  circuit can ever touch (linear stamps, the device group's scatter
  tables, the gshunt diagonal) into a fixed CSC structure, and maps
  ``(row, col)`` stamp slots to their positions in the shared ``data``
  array, once, at compile time.  Ground / dummy slots (index ``size``)
  map to a trailing scratch position that is never read — the same
  trick the dense buffers play with their extra row/column.
* :class:`PatternMatrix` is the nnz-length value array bound to a
  pattern.  It quacks like the small corner of ``ndarray`` the analyses
  actually use (``alpha * C``, ``G += ...``, ``copy``), so the analyses
  run unchanged on top of it; the Newton loops add the gshunt diagonal
  to its ``data`` at positions the engine finds once.
* :class:`PatternOrder` is the pattern's fill-reducing symmetric
  permutation, computed once from the structure alone (never from a
  matrix's values), plus the gather map that turns a data array into
  the permuted matrix's CSC values.  The sparse LU factorizes that
  permuted matrix in its given column order, so no factorization
  computes an ordering; SuperLU still derives the elimination tree and
  the L/U structure on every call, interleaved with the numeric work.

Wrapping the data array back into ``scipy.sparse.csc_matrix`` is a
zero-copy header operation, which is what lets
:class:`~repro.spice.engine.SparseLUSolver` factorize without ever
scanning a dense matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp
from scipy.sparse import linalg as _spla

from ..errors import AnalysisError

__all__ = ["SparsityPattern", "PatternMatrix", "PatternOrder"]

#: The ordering ``permc_spec=None`` stands for: minimum degree on the
#: structure of A+Aᵀ, the symmetric order circuit matrices suit.
DEFAULT_ORDERING = "MMD_AT_PLUS_A"


class SparsityPattern:
    """Deduplicated CSC structure over a set of stamp slots.

    ``rows``/``cols`` list every slot that may ever receive a stamp;
    entries at the dummy index ``size`` (ground-mapped lanes) are kept
    out of the structure but still get a position — the trailing scratch
    slot ``nnz`` — so vectorized scatters need no masking.

    The structure is immutable after construction; every assembly reuses
    it, and every factorization reuses the fill-reducing order
    :meth:`ordered` computes from it once.
    """

    def __init__(self, size: int, rows, cols):
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        if rows.shape != cols.shape:
            raise AnalysisError("sparsity pattern rows/cols length mismatch")
        if rows.size and (rows.min() < 0 or cols.min() < 0):
            raise AnalysisError("sparsity pattern got a negative index")
        self.size = int(size)
        dummy = (rows >= size) | (cols >= size)
        keys = cols[~dummy] * np.intp(size) + rows[~dummy]
        #: Sorted unique ``col*size + row`` keys — CSC (column-major) order.
        self._keys = np.unique(keys)
        nnz = int(self._keys.size)
        self.nnz = nnz
        #: CSC row indices / column pointers of the deduplicated structure.
        self.indices = (self._keys % size).astype(np.int32)
        self.indptr = np.searchsorted(
            self._keys // size, np.arange(size + 1)
        ).astype(np.int32)
        #: The orders computed so far, keyed by ordering name (see
        #: :meth:`ordered`).
        self.orders: dict[str, PatternOrder] = {}

    def positions(self, rows, cols) -> np.ndarray:
        """Data positions of the given slots (vectorized).

        Dummy slots (row or col ``>= size``) map to the scratch position
        ``nnz``.  A structurally absent in-range slot raises — silently
        dropping a stamp would corrupt the physics.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        dummy = (rows >= self.size) | (cols >= self.size)
        keys = np.where(dummy, self._keys[0] if self.nnz else 0,
                        cols * np.intp(self.size) + rows)
        pos = np.searchsorted(self._keys, keys)
        np.minimum(pos, max(self.nnz - 1, 0), out=pos)
        missing = ~dummy & (
            (self.nnz == 0) | (self._keys[pos] != keys)
        )
        if np.any(missing):
            k = int(np.argmax(missing))
            raise AnalysisError(
                f"stamp slot ({int(rows.reshape(-1)[k] if rows.ndim else rows)}, "
                f"{int(cols.reshape(-1)[k] if cols.ndim else cols)}) is outside "
                "the compiled sparsity pattern (circuit changed after compile?)"
            )
        return np.where(dummy, self.nnz, pos).astype(np.intp)

    def ordered(self, permc_spec: str | None = None) -> "PatternOrder":
        """The pattern's fill-reducing symmetric order for SuperLU's
        ``permc_spec`` ordering (``None``: :data:`DEFAULT_ORDERING`),
        computed on first use and kept in :attr:`orders`."""
        spec = permc_spec or DEFAULT_ORDERING
        order = self.orders.get(spec)
        if order is None:
            # Threads racing here compute the same order; all keep the
            # one stored first.
            order = self.orders.setdefault(spec, PatternOrder(self, spec))
        return order

    def matrix(self, data: np.ndarray | None = None) -> "PatternMatrix":
        """A :class:`PatternMatrix` over ``data`` (fresh zeros if None)."""
        if data is None:
            data = np.zeros(self.nnz + 1)
        return PatternMatrix(self, data)

    def csc(self, data: np.ndarray):
        """Zero-copy ``csc_matrix`` header over an nnz-length data array.

        ``data`` may be length ``nnz`` or ``nnz + 1`` (with the trailing
        scratch slot); only the first ``nnz`` values enter the matrix.
        """
        return _sp.csc_matrix(
            (data[: self.nnz], self.indices, self.indptr),
            shape=(self.size, self.size), copy=False,
        )


class PatternOrder:
    """A symmetric permutation of a pattern and its permuted CSC structure.

    ``order[k]`` is the unknown placed at position ``k``: the permuted
    matrix is ``A[order][:, order]``, so diagonal entries stay on the
    diagonal and threshold pivoting can keep them as pivots.
    ``inverse`` undoes it (``x == y[inverse]`` for ``y == x[order]``).

    The order depends on the structure alone.  SuperLU computes it, in
    symmetric mode, from a stand-in matrix over the pattern plus its
    diagonal, whose values (strictly diagonally dominant, so that
    factorization always succeeds) never reach the order.  The engine's
    patterns always hold the diagonal, so their order is the one
    SuperLU would compute from the Jacobian itself; minimum degree on
    A+Aᵀ ignores the diagonal, so the default order is that one for any
    pattern.
    """

    __slots__ = ("size", "order", "inverse", "gather", "indices", "indptr")

    def __init__(self, pattern: SparsityPattern, permc_spec: str):
        size = pattern.size
        self.size = size
        counts = np.diff(pattern.indptr)
        stand_in = pattern.csc(np.ones(pattern.nnz)) + _sp.diags(
            counts + 1.0, format="csc")
        self.inverse = _spla.splu(
            stand_in, permc_spec=permc_spec,
            options=dict(SymmetricMode=True),
        ).perm_c.astype(np.intp)
        self.order = np.argsort(self.inverse)
        # Where every data position lands in the permuted CSC.
        cols = np.repeat(np.arange(size, dtype=np.intp), counts)
        keys = (self.inverse[cols] * np.intp(size)
                + self.inverse[pattern.indices])
        #: ``data[gather]`` are the permuted matrix's CSC values.
        self.gather = np.argsort(keys)
        keys = keys[self.gather]
        self.indices = (keys % size).astype(np.int32)
        self.indptr = np.searchsorted(
            keys // size, np.arange(size + 1)
        ).astype(np.int32)

    def csc(self, data: np.ndarray):
        """The permuted matrix over a pattern data array (length ``nnz``
        or ``nnz + 1``)."""
        return _sp.csc_matrix(
            (data[self.gather], self.indices, self.indptr),
            shape=(self.size, self.size), copy=False,
        )


class PatternMatrix:
    """nnz-length value array that behaves like the matrix it encodes.

    ``data`` has ``pattern.nnz + 1`` entries: the structural values in
    CSC order plus one trailing scratch slot absorbing ground-lane
    scatters (never read).  Supports exactly the operations the analyses
    perform on a Jacobian — anything else should go through
    :meth:`toarray` explicitly.
    """

    __slots__ = ("pattern", "data")

    def __init__(self, pattern: SparsityPattern, data: np.ndarray):
        if data.shape[-1] not in (pattern.nnz, pattern.nnz + 1):
            raise AnalysisError(
                f"pattern data length {data.shape[-1]} does not match "
                f"nnz {pattern.nnz}"
            )
        self.pattern = pattern
        self.data = data

    @property
    def values(self) -> np.ndarray:
        """The structural values (scratch slot excluded)."""
        return self.data[: self.pattern.nnz]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.pattern.size, self.pattern.size)

    @property
    def dtype(self):
        return self.data.dtype

    # -- whole-matrix arithmetic (transient integrator, AC combination) --------

    def copy(self) -> "PatternMatrix":
        return PatternMatrix(self.pattern, self.data.copy())

    def __mul__(self, scalar):
        out = self.data[: self.pattern.nnz + 1].astype(
            np.result_type(self.data.dtype, type(scalar)), copy=True
        )
        out *= scalar
        return PatternMatrix(self.pattern, out)

    __rmul__ = __mul__

    def __iadd__(self, other):
        if isinstance(other, PatternMatrix):
            if other.pattern is not self.pattern:
                raise AnalysisError(
                    "cannot combine PatternMatrix values from different "
                    "sparsity patterns"
                )
            self.values.__iadd__(other.values)
            return self
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, PatternMatrix):
            if other.pattern is not self.pattern:
                raise AnalysisError(
                    "cannot combine PatternMatrix values from different "
                    "sparsity patterns"
                )
            nnz = self.pattern.nnz
            out = np.zeros(
                nnz + 1,
                dtype=np.result_type(self.data.dtype, other.data.dtype),
            )
            np.add(self.values, other.values, out=out[:nnz])
            return PatternMatrix(self.pattern, out)
        return NotImplemented

    # -- conversion -------------------------------------------------------------

    def to_csc(self):
        """Zero-copy ``csc_matrix`` over the current values."""
        return self.pattern.csc(self.data)

    def toarray(self) -> np.ndarray:
        return self.to_csc().toarray()

    def __array__(self, dtype=None, copy=None):
        dense = self.toarray()
        if dtype is not None:
            dense = dense.astype(dtype)
        return dense

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self.to_csc().dot(x)

    def __matmul__(self, x):
        return self.dot(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PatternMatrix {self.pattern.size}x{self.pattern.size}, "
                f"nnz={self.pattern.nnz}>")
