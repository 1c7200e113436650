"""Vectorized batch evaluation of deployments over the compiled IR.

Every population- or sweep-shaped consumer used to score deployments one
mapping at a time through scalar Python loops: the genetic algorithm per
chromosome, the 32 000-draw quality protocol per sample, the hill
climber per candidate move, the fleet controller per rebalance
candidate. :class:`BatchEvaluator` scores a whole *batch* of deployments
-- a ``(K, M)`` integer array of server choices, one row per candidate
-- in NumPy across the batch axis:

* the affine route-delay table of the shared
  :class:`~repro.core.compiled.CompiledInstance` is materialised as
  dense ``(S, S)`` base/rate matrices (one per-message delay matrix per
  distinct message size, so genuinely size-dependent pairs are priced
  through the router exactly once per size);
* the topological forward pass runs as ``M`` vectorized steps over
  ``K``-vectors -- ``Tproc`` gathered from the ``(M, S)`` table, message
  delays via fancy-indexed endpoint lookups, and probability-weighted
  ``XOR`` joins accumulated in arrival order;
* per-server loads come from an op-ordered scatter-add and the penalty
  statistic is evaluated column-sequentially, so every reduction runs in
  the exact floating-point order of the scalar path.

**Determinism contract.** Each returned value is computed from exactly
the operands, in exactly the order, that
:meth:`~repro.core.compiled.CompiledInstance.forward_pass`,
:meth:`~repro.core.compiled.CompiledInstance.load_values` and
:meth:`~repro.core.compiled.CompiledInstance.penalty` use -- IEEE-754
double arithmetic is the same whether the lanes are Python floats or
NumPy float64 vectors -- so batch scores are bit-identical to the scalar
path wherever the operation order matches (the parity property suite
pins this, and seeded searches wired through the kernel return the same
deployments as their scalar counterparts). :meth:`BatchScores.argbest`
resolves ties like every existing consumer: the first row attaining the
minimum wins.

NumPy is imported *here*, lazily: consumers reach this module through
:meth:`~repro.core.compiled.CompiledInstance.batch_evaluator` on first
use, so importing ``repro`` never loads NumPy. Without NumPy that call
raises a ``RuntimeError`` naming ``pip install numpy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is a declared dep
    raise RuntimeError(
        "repro.core.batch requires NumPy for its vectorized kernel; "
        "install it with `pip install numpy`"
    ) from exc

from repro.core.compiled import (
    JOIN_MIN,
    JOIN_XOR,
    CompiledInstance,
)
from repro.exceptions import DeploymentError

__all__ = ["BatchEvaluator", "BatchScores", "penalty_rows"]


def penalty_rows(loads: "np.ndarray", mode: str) -> "np.ndarray":
    """The fairness statistic of every row of a ``(K, S)`` load matrix.

    The row-vectorised :func:`~repro.core.compiled.penalty_statistic`:
    each sum accumulates column by column, so every row's float is the
    scalar left fold over that row's values. Shared by the kernel's
    :meth:`BatchEvaluator.evaluate` and the fleet rebalance scorer. An
    unknown *mode* falls through to ``"std"``, as in the scalar form.
    """
    count, servers = loads.shape
    if servers == 0:  # pragma: no cover - networks are never empty
        return np.zeros(count)
    acc = np.zeros(count)
    for j in range(servers):
        acc += loads[:, j]
    mean = acc / servers
    if mode == "max":
        worst = np.abs(loads[:, 0] - mean)
        for j in range(1, servers):
            np.maximum(worst, np.abs(loads[:, j] - mean), out=worst)
        return worst
    total = np.zeros(count)
    if mode == "mad" or mode == "sum_abs":
        for j in range(servers):
            total += np.abs(loads[:, j] - mean)
        return total / servers if mode == "mad" else total
    for j in range(servers):
        deviation = np.abs(loads[:, j] - mean)
        total += deviation * deviation
    return np.sqrt(total / servers)


@dataclass(frozen=True)
class BatchScores:
    """Scores of one evaluated batch, one entry per row.

    Attributes
    ----------
    execution, penalty, objective:
        ``(K,)`` float arrays: ``Texecute``, the fairness penalty and
        the scalar objective of each batch row, bit-identical to the
        scalar :meth:`~repro.core.compiled.CompiledInstance.components`
        of that row.
    migration:
        ``(K,)`` float array of per-row migration costs vs the
        transition baseline (already folded into ``objective`` with the
        migration weight); ``None`` when the compiled instance is not
        transition-aware.
    """

    execution: "np.ndarray"
    penalty: "np.ndarray"
    objective: "np.ndarray"
    migration: "np.ndarray | None" = None

    def __len__(self) -> int:
        """Number of scored rows."""
        return len(self.objective)

    def argbest(self) -> int:
        """Index of the best (minimum-objective) row.

        Ties resolve to the *first* minimal row -- the deterministic
        order every scalar consumer already uses (``max``/``min`` over
        a scan keeps the first extremum; ``np.argmin`` does the same).
        Raises on an empty batch.
        """
        if len(self.objective) == 0:
            raise DeploymentError("argbest() on an empty batch")
        return int(np.argmin(self.objective))


class BatchEvaluator:
    """Score batches of deployments against one compiled instance.

    Built once from a :class:`~repro.core.compiled.CompiledInstance`
    (construction resolves every server-pair route into the dense delay
    matrices); each :meth:`evaluate` call then prices ``K`` candidate
    deployments in ``M`` vectorized steps. Obtain the shared per-artifact
    evaluator through
    :meth:`CompiledInstance.batch_evaluator
    <repro.core.compiled.CompiledInstance.batch_evaluator>` rather than
    constructing duplicates.

    Parameters
    ----------
    compiled:
        The compiled problem instance to evaluate against.
    """

    def __init__(self, compiled: CompiledInstance):
        self.compiled = compiled
        self.num_ops = compiled.num_ops
        self.num_servers = compiled.num_servers
        self._order = compiled.order
        self._exits = compiled.exits
        self._join = compiled.join_code
        self._tproc = np.asarray(compiled.tproc, dtype=np.float64)
        self._wcycles = np.asarray(compiled.wcycles, dtype=np.float64)
        self._power = np.asarray(compiled.power, dtype=np.float64)
        self._xor_weights = compiled.xor_weights
        self._xor_total = compiled.xor_weight_total
        # (M, S) migration-cost table when transition-aware, else None
        self._migration_table = (
            np.asarray(compiled.migration_table, dtype=np.float64)
            if compiled.transition_aware
            else None
        )

        # ---- dense (S, S) affine route-delay matrices -----------------
        servers = self.num_servers
        base = np.zeros((servers, servers))
        rate = np.zeros((servers, servers))
        sized_pairs: list[tuple[int, int]] = []
        for i in range(servers):
            for j in range(servers):
                coeff = compiled.route_coefficients(i, j)
                if coeff:
                    base[i, j] = coeff[0]
                    rate[i, j] = coeff[1]
                else:
                    # genuinely size-dependent pair: priced per message
                    # size through the router when the matrix is built
                    sized_pairs.append((i, j))
        self._base = base
        self._rate = rate
        self._sized_pairs = tuple(sized_pairs)
        self._delay_matrices: dict[float, np.ndarray] = {}

        # ---- per-operation incoming edges, delay matrix attached ------
        self._incoming: tuple[tuple[tuple[int, "np.ndarray"], ...], ...] = (
            tuple(
                tuple(
                    (src, self._delay_matrix(size_bits))
                    for src, size_bits, _weight in compiled.incoming[op]
                )
                for op in range(self.num_ops)
            )
        )

    # ------------------------------------------------------------------
    # delay matrices
    # ------------------------------------------------------------------
    def _delay_matrix(self, size_bits: float) -> "np.ndarray":
        """The dense ``(S, S)`` delay matrix for one message size.

        ``base + size * rate`` elementwise -- the same expression the
        scalar :meth:`~repro.core.compiled.CompiledInstance.delay`
        evaluates per query, so every entry is the identical float.
        Size-dependent pairs are answered by the router, once per size.
        """
        matrix = self._delay_matrices.get(size_bits)
        if matrix is None:
            matrix = self._base + size_bits * self._rate
            if self._sized_pairs:
                router = self.compiled.router
                names = self.compiled.server_names
                values = router.transmission_times(
                    [(names[i], names[j]) for i, j in self._sized_pairs],
                    size_bits,
                )
                for (i, j), value in zip(self._sized_pairs, values):
                    matrix[i, j] = value
            self._delay_matrices[size_bits] = matrix
        return matrix

    def refresh_routes(
        self, affected: "set[tuple[int, int]] | None" = None
    ) -> None:
        """Rebuild the dense delay matrices after a route refresh.

        Called by :meth:`CompiledInstance.refresh_routes
        <repro.core.compiled.CompiledInstance.refresh_routes>` once the
        shared route table holds the post-event coefficients: re-reads
        every pair into ``base``/``rate`` and recomputes each cached
        per-size matrix **in place**, because the per-operation incoming
        tuples hold references to those arrays. One bulk pass instead of
        discarding the evaluator and rebuilding it.

        *affected* (index pairs, both directions) scopes the expensive
        part: a size-dependent pair outside the affected set kept its
        per-size optimal paths across the (strictly worsening) change,
        so its old matrix entries are restored verbatim instead of
        re-running one Dijkstra per cached message size. That is only
        sound because :meth:`repro.network.routing.Router.invalidate`
        reports *every* pair whose per-size fallback entries it dropped
        -- including pairs whose classification paths avoid the change
        while some per-size optimum crossed it -- so anything outside
        *affected* provably kept all its sized paths. ``None`` means
        every pair may have changed -- re-query them all.
        """
        servers = self.num_servers
        compiled = self.compiled
        base = np.zeros((servers, servers))
        rate = np.zeros((servers, servers))
        sized_pairs: list[tuple[int, int]] = []
        for i in range(servers):
            for j in range(servers):
                coeff = compiled.route_coefficients(i, j)
                if coeff:
                    base[i, j] = coeff[0]
                    rate[i, j] = coeff[1]
                else:
                    sized_pairs.append((i, j))
        self._base = base
        self._rate = rate
        self._sized_pairs = tuple(sized_pairs)
        if compiled.transition_aware:
            self._migration_table = np.asarray(
                compiled.migration_table, dtype=np.float64
            )
        router = compiled.router
        names = compiled.server_names
        for size_bits, matrix in self._delay_matrices.items():
            kept = {
                (i, j): matrix[i, j]
                for i, j in self._sized_pairs
                if affected is not None and (i, j) not in affected
            }
            matrix[...] = base + size_bits * rate
            requery: list[tuple[int, int]] = []
            for i, j in self._sized_pairs:
                value = kept.get((i, j))
                if value is not None:
                    matrix[i, j] = value
                else:
                    requery.append((i, j))
            if requery:
                values = router.transmission_times(
                    [(names[i], names[j]) for i, j in requery], size_bits
                )
                for (i, j), value in zip(requery, values):
                    matrix[i, j] = value

    # ------------------------------------------------------------------
    # batch construction helpers
    # ------------------------------------------------------------------
    def index_batch(self, genomes: Iterable[Sequence[str]]) -> "np.ndarray":
        """``(K, M)`` index batch from server-*name* genomes.

        Each genome lists one server name per operation **in compiled
        operation order** (the workflow's ``operation_names`` order --
        what the genetic algorithm and the sampler draw). Unknown names
        raise :class:`~repro.exceptions.DeploymentError`.
        """
        server_index = self.compiled.server_index
        try:
            rows = [
                [server_index[name] for name in genome] for genome in genomes
            ]
        except KeyError as exc:
            raise DeploymentError(
                f"unknown server {exc.args[0]!r} in batch genome"
            ) from None
        if not rows:
            return np.empty((0, self.num_ops), dtype=np.intp)
        return np.asarray(rows, dtype=np.intp)

    def neighborhood(self, servers: Sequence[int]) -> "np.ndarray":
        """The single-move neighbourhood grid of one server vector.

        Returns the ``(M * S, M)`` batch in which row ``op * S + s``
        relocates operation ``op`` onto server ``s`` (rows where ``s``
        is the operation's current server are no-op rows scoring the
        incumbent). Row order matches the scalar hill-climbing scan --
        operations outer, servers inner -- so
        :meth:`BatchScores.argbest` picks the same move the scalar
        best-improvement sweep would.
        """
        base = np.asarray(servers, dtype=np.intp)
        if base.shape != (self.num_ops,):
            raise DeploymentError(
                f"server vector must have length {self.num_ops}, got "
                f"shape {base.shape}"
            )
        count = self.num_ops * self.num_servers
        grid = np.repeat(base[None, :], count, axis=0)
        rows = np.arange(count)
        grid[rows, rows // self.num_servers] = rows % self.num_servers
        return grid

    # ------------------------------------------------------------------
    # the batched kernel
    # ------------------------------------------------------------------
    def _coerce(self, batch) -> "np.ndarray":
        b = np.asarray(batch, dtype=np.intp)
        if b.ndim == 1 and b.size == 0:
            b = b.reshape(0, self.num_ops)
        if b.ndim != 2 or b.shape[1] != self.num_ops:
            raise DeploymentError(
                f"batch must be a (K, {self.num_ops}) array of server "
                f"indices, got shape {b.shape}"
            )
        if b.size and (b.min() < 0 or b.max() >= self.num_servers):
            raise DeploymentError(
                f"batch contains server indices outside "
                f"[0, {self.num_servers})"
            )
        return b

    def _transposed(self, batch) -> "np.ndarray":
        """The coerced batch, op-major: ``bT[op]`` is one contiguous
        ``K``-vector of the batch's server choices for that operation."""
        return np.ascontiguousarray(self._coerce(batch).T)

    def evaluate(self, batch) -> BatchScores:
        """Score every row of *batch*: ``(execution, penalty, objective)``.

        *batch* is any array-like coercible to a ``(K, M)`` integer
        array, ``batch[k][op_index] -> server_index``. ``K = 0`` is
        valid and returns empty arrays. Each row's three scores equal
        the scalar
        :meth:`~repro.core.compiled.CompiledInstance.components` of that
        row (see the module determinism contract).
        """
        bT = self._transposed(batch)
        execution = self._execution(bT)
        compiled = self.compiled
        penalty = penalty_rows(self._loads(bT), compiled.penalty_mode)
        objective = (
            compiled.execution_weight * execution
            + compiled.penalty_weight * penalty
        )
        if self._migration_table is None:
            return BatchScores(execution, penalty, objective)
        migration = self._migration(bT)
        # the same left-to-right order as the scalar objective_value:
        # (ew*e + pw*p) first, then + mw*m
        objective = objective + compiled.migration_weight * migration
        return BatchScores(execution, penalty, objective, migration)

    def execution(self, batch) -> "np.ndarray":
        """``Texecute`` of every row of *batch*, and nothing else.

        The forward pass of :meth:`evaluate` alone -- no loads, penalty
        or objective -- for callers that score the rest themselves (the
        fleet rebalance, whose penalty is fleet-wide). Bit-identical to
        ``evaluate(batch).execution``.
        """
        return self._execution(self._transposed(batch))

    def _execution(self, bT: "np.ndarray") -> "np.ndarray":
        """``Texecute`` per row: the vectorized topological forward pass."""
        count = bT.shape[1]
        tproc = self._tproc
        join = self._join
        xor_weights = self._xor_weights
        xor_total = self._xor_total
        finish = np.empty((self.num_ops, count))
        for op in self._order:
            edges = self._incoming[op]
            row = tproc[op]
            dst = bT[op]
            if not edges:
                finish[op] = row[dst]
                continue
            code = join[op]
            if code == JOIN_XOR and xor_total[op] > 0:
                # probability-weighted average, accumulated in arrival
                # order (matches the scalar sequential sum bit-for-bit)
                total = xor_total[op]
                ready = None
                for (src, delay), weight in zip(edges, xor_weights[op]):
                    arrival = finish[src] + delay[bT[src], dst]
                    term = weight * arrival
                    ready = term if ready is None else ready + term
                ready = ready / total
            elif code == JOIN_MIN:
                ready = None
                for src, delay in edges:
                    arrival = finish[src] + delay[bT[src], dst]
                    ready = (
                        arrival
                        if ready is None
                        else np.minimum(ready, arrival)
                    )
            else:
                # plain/AND joins -- and XOR joins whose static weights
                # sum to zero, exactly as the scalar pass degrades
                ready = None
                for src, delay in edges:
                    arrival = finish[src] + delay[bT[src], dst]
                    ready = (
                        arrival
                        if ready is None
                        else np.maximum(ready, arrival)
                    )
            finish[op] = ready + row[dst]
        execution = finish[self._exits[0]].copy()
        for op in self._exits[1:]:
            np.maximum(execution, finish[op], out=execution)
        return execution

    def _loads(self, bT: "np.ndarray") -> "np.ndarray":
        """``(K, S)`` per-server loads in seconds.

        The scatter-add runs one operation at a time (row indices are
        unique within a step), so each ``(row, server)`` slot
        accumulates its weighted cycles in operation insertion order --
        the exact float sequence of the scalar
        :meth:`~repro.core.compiled.CompiledInstance.load_values`.
        """
        count = bT.shape[1]
        totals = np.zeros((count, self.num_servers))
        rows = np.arange(count)
        wcycles = self._wcycles
        for op in range(self.num_ops):
            totals[rows, bT[op]] += wcycles[op]
        return totals / self._power

    def _migration(self, bT: "np.ndarray") -> "np.ndarray":
        """``(K,)`` migration cost per row vs the transition baseline.

        Accumulates one operation at a time, so each row's total adds
        its table lookups in operation insertion order -- the exact
        float sequence of the scalar
        :meth:`~repro.core.compiled.CompiledInstance.migration_cost`.
        """
        count = bT.shape[1]
        table = self._migration_table
        totals = np.zeros(count)
        for op in range(self.num_ops):
            totals += table[op][bT[op]]
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchEvaluator(ops={self.num_ops}, "
            f"servers={self.num_servers})"
        )
