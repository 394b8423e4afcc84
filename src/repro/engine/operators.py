"""Physical relational operators.

This module implements every operator the paper's algebra needs:

============================  =============================================
Paper notation                Function here
============================  =============================================
``σ_p``                       :func:`select`
``π_c`` (no dup-elim)         :func:`project`
``δ`` (duplicate removal)     :func:`distinct`
``⋈_p`` / ``⟕`` / ``⟖``/``⟗``  :func:`join` with ``kind`` inner/left/right/full
``⋉^ls`` (left semijoin)       :func:`join` with ``kind="semi"``
``⋉^la`` (left anti-semijoin)  :func:`join` with ``kind="anti"``
``⊎`` (outer union)            :func:`outer_union`
``↓`` (remove subsumed)        :func:`remove_subsumed`
``⊕`` (minimum union)          :func:`minimum_union`
``λ^c_p`` (null-if)            :func:`null_if`
============================  =============================================

Predicates arrive **pre-compiled** as Python callables taking a row tuple
and returning ``True``/``False`` (three-valued logic is resolved by the
compiler in :mod:`repro.algebra.predicates`: UNKNOWN behaves as ``False``).
Joins additionally accept equi-join column pairs that are executed with
hash joins; the residual callable covers the non-equi part.

The unit of work is the whole input: every per-row step is a
comprehension, a ``map`` over a compiled row shaper (:func:`shaper`) or a
dict bulk method, so an operator costs a fixed number of Python calls
plus one per predicate test — never a call chain per row.

SQL NULL semantics are observed throughout: ``None`` never matches ``None``
in an equi-join (a ``None`` join key falls straight to the unmatched side).
"""

from __future__ import annotations

import functools
from itertools import chain, compress, repeat
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from ..obs.tracing import current_span
from .index import KeyIndex, find_index, projector
from .schema import Schema
from .table import Row, Table

Predicate = Callable[[Row], bool]

JOIN_KINDS = ("inner", "left", "right", "full", "semi", "anti")


def _traced(kind_of: Callable[[tuple, dict], str]):
    """Report (kind, rows produced, seconds) of each call into the active
    tracing span.  With no span open — the default — the only cost is one
    thread-local lookup per operator call (not per row)."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = current_span()
            if span is None:
                return fn(*args, **kwargs)
            started = perf_counter()
            out = fn(*args, **kwargs)
            span.record_operator(kind_of(args, kwargs), len(out.rows), perf_counter() - started)
            return out

        return wrapper

    return decorate


def _named(kind: str):
    return _traced(lambda args, kwargs: kind)


def _join_kind(args: tuple, kwargs: dict) -> str:
    kind = kwargs.get("kind", args[2] if len(args) > 2 else "?")
    return f"join:{kind}"


def _result(name: str, schema: Schema, rows: List[Row], key=None, not_null=()) -> Table:
    """An operator's output table adopting *rows*, a list the operator
    built itself (``Table(...)`` would copy it).  *key* (a tuple or
    ``None``) and *not_null* are set as given: the plan compiler already
    resolved those columns, so the constructor's per-column
    ``Schema.index_of`` check is skipped."""
    table = Table(name, schema)
    table.rows = rows
    table.key = key
    table.not_null = frozenset(not_null)
    return table


def shaper(mapping: Sequence[Optional[int]]) -> Callable[[Row], Row]:
    """Compile ``row -> tuple`` whose i-th value is ``row[mapping[i]]``, or
    NULL where ``mapping[i]`` is ``None``: an ``itemgetter`` when every
    output column is present, one generated tuple expression otherwise.
    Built once per (plan, input schema) and mapped over whole batches."""
    if mapping and None not in mapping:
        return projector(mapping)
    body = "".join("None," if m is None else f"row[{m}]," for m in mapping)
    return eval(f"lambda row: ({body})", {"__builtins__": {}})


def aligner(schema: Schema, columns: Sequence[str]) -> Callable[[Row], Row]:
    """The :func:`shaper` taking a row of *schema* to *columns*, NULL for
    the columns *schema* lacks."""
    return shaper([schema.index_of(c) if c in schema else None for c in columns])


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------
@_named("select")
def select(table: Table, predicate: Predicate, name: str = "") -> Table:
    """``σ_p`` — keep rows for which *predicate* returns ``True``."""
    return _result(
        name or table.name,
        table.schema,
        list(filter(predicate, table.rows)),
        key=table.key,
        not_null=table.not_null,
    )


@_named("project")
def project(
    table: Table,
    columns: Sequence[str],
    name: str = "",
    positions: Optional[Sequence[int]] = None,
    schema: Optional[Schema] = None,
) -> Table:
    """``π_c`` — projection *without* duplicate elimination.

    The result keeps the input's key if all key columns survive.
    *positions*/*schema* let a compiled plan supply the resolved column
    positions and output schema once instead of per call.
    """
    if positions is None:
        positions = table.schema.positions(columns)
    if schema is None:
        schema = Schema(columns)
    rows = list(map(shaper(positions), table.rows))
    key = table.key if table.key and all(c in schema for c in table.key) else None
    not_null = frozenset(c for c in table.not_null if c in schema)
    return _result(name or table.name, schema, rows, key=key, not_null=not_null)


@_named("distinct")
def distinct(table: Table, name: str = "") -> Table:
    """``δ`` — remove duplicate rows, preserving first-seen order."""
    return _result(
        name or table.name,
        table.schema,
        list(dict.fromkeys(table.rows)),
        key=table.key,
        not_null=table.not_null,
    )


@_named("null_if")
def null_if(
    table: Table,
    predicate: Predicate,
    columns: Sequence[str],
    name: str = "",
    nuller: Optional[Callable[[Row], Row]] = None,
) -> Table:
    """``λ^c_p`` — the paper's null-if operator (Section 4.1).

    For every row satisfying *predicate*, set all *columns* to NULL; other
    rows pass through unchanged.  Used by the outer-join associativity
    rules 1, 4 and 5 to fix up tuples that should have been null-extended.

    The input's key survives when no key column is among the nulled
    *columns* (rows keep their key values, so uniqueness is preserved).
    *nuller* lets a compiled plan supply :func:`null_shaper`'s row
    function, built once.
    """
    if nuller is None:
        nuller = null_shaper(table.schema, columns)
    rows = [nuller(row) if predicate(row) else row for row in table.rows]
    nulled = set(columns)
    not_null = frozenset(c for c in table.not_null if c not in nulled)
    key = table.key if table.key and not nulled & set(table.key) else None
    return _result(name or table.name, table.schema, rows, key=key, not_null=not_null)


def null_shaper(schema: Schema, columns: Sequence[str]) -> Callable[[Row], Row]:
    """``row -> row`` with *columns* of *schema* set to NULL."""
    nulled = set(schema.positions(columns))
    return shaper([None if p in nulled else p for p in range(len(schema))])


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------
@_traced(_join_kind)
def join(
    left: Table,
    right: Table,
    kind: str,
    equi: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
    name: str = "",
    positions: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    schema: Optional[Schema] = None,
) -> Table:
    """Join *left* and *right*.

    Parameters
    ----------
    kind:
        One of ``inner``, ``left``, ``right``, ``full`` (outer joins),
        ``semi`` (left semijoin ``⋉^ls``) or ``anti`` (left anti-semijoin
        ``⋉^la``).
    equi:
        Equi-join column pairs ``(left_column, right_column)`` executed via
        a hash join.  A NULL key never matches (SQL semantics).  A
        persistent right-side index covering the columns is probed as is;
        otherwise the smaller input is hashed.  Either way the same kernel
        runs: the hashed side only decides which input is streamed.
    residual:
        Optional extra predicate evaluated on the concatenated row
        (left columns followed by right columns) — for semi/anti joins the
        right row is appended only for the duration of the test.
    positions / schema:
        Let a compiled plan supply the equi columns' positions in
        ``(left, right)`` and the output schema, resolved once.

    Joins with no *equi* pairs test every pair of rows (nested loop).
    """
    if kind not in JOIN_KINDS:
        raise SchemaError(f"unknown join kind {kind!r}")
    if equi:
        buckets, probe_key, swap, single = _lookup(left, right, equi, positions)
        keys = map(probe_key, right.rows if swap else left.rows)
    else:  # one bucket holding every right row, found under every key
        buckets, swap, single = {(): range(len(right.rows))}, False, False
        keys = repeat((), len(left.rows))
    rows = _probe(kind, left, right, buckets, keys, swap, single, residual)

    if kind in ("semi", "anti"):
        return _result(
            name or left.name,
            left.schema,
            rows,
            key=left.key,
            not_null=left.not_null,
        )
    key = None
    if left.key is not None and right.key is not None:
        key = left.key + right.key
    if kind == "inner":
        not_null = left.not_null | right.not_null
    elif kind == "left":
        not_null = left.not_null
    elif kind == "right":
        not_null = right.not_null
    else:
        not_null = frozenset()
    if schema is None:
        schema = left.schema.concat(right.schema)
    return _result(name or "join", schema, rows, key=key, not_null=not_null)


def _lookup(left: Table, right: Table, equi, positions=None):
    """Choose an equi join's hash lookup:
    ``(buckets, probe_key, swap, single)``.

    *buckets* maps a key to the positions of the build side's rows that
    carry it (NULL-keyed rows are in no bucket, so a NULL probe key finds
    nothing either) — or, when *single*, to the one position holding it;
    *probe_key* projects a streamed row onto the same key; *swap* says the
    build side is the **left** input.  The live persistent index of
    *right* is used as is when it covers the equi columns — nothing is
    built, and a key index is *single* — else the smaller input is hashed.
    """
    if positions is None:
        positions = (
            left.schema.positions([lc for lc, __ in equi]),
            right.schema.positions([rc for __, rc in equi]),
        )
    lpos, rpos = positions
    if right.indexes:
        found = find_index(right, [rc for __, rc in equi])
        if found is not None:
            index, permutation = found
            probe_key = projector([lpos[p] for p in permutation])
            return index.buckets, probe_key, False, isinstance(index, KeyIndex)
    swap = len(left.rows) < len(right.rows)
    built, bpos, ppos = (left, lpos, rpos) if swap else (right, rpos, lpos)
    buckets: Dict[Row, List[int]] = {}
    for position, key in enumerate(map(projector(bpos), built.rows)):
        if None in key:
            continue  # NULL never matches
        if key in buckets:
            buckets[key].append(position)
        else:
            buckets[key] = [position]
    return buckets, projector(ppos), swap, False


def _probe(kind, left: Table, right: Table, buckets, keys, swap, single, residual):
    """The one join kernel: stream the probe side's *keys* through
    *buckets* and emit the rows of a *kind* join.

    The probe side is the left input unless *swap*; building left is this
    same loop probed from the right, its matches turned back into left
    and right positions (``li[n]`` matches ``ri[n]``) before anything is
    emitted.  A *single* lookup (a key index, never swapped) finds at most
    one position per probe row.
    """
    lrows, rrows = left.rows, right.rows
    if single:
        found = list(map(buckets.get, keys))  # the build position, or None
        li = [i for i, b in enumerate(found) if b is not None]
        if residual is not None:
            li = [i for i in li if residual(lrows[i] + rrows[found[i]])]
        ri = [found[i] for i in li]
    else:
        hits = list(map(buckets.get, keys, repeat(())))  # build positions per probe row
        if residual is not None:
            hits = [
                h and [b for b in h if residual(lrows[b] + p if swap else p + rrows[b])]
                for p, h in zip(rrows if swap else lrows, hits)
            ]
        probe_of = [i for i in compress(range(len(hits)), hits) for __ in hits[i]]
        build_of = list(chain.from_iterable(hits))
        li, ri = (build_of, probe_of) if swap else (probe_of, build_of)

    if kind in ("semi", "anti"):
        matched = set(li)
        return [row for i, row in enumerate(lrows) if (i in matched) == (kind == "semi")]
    rows = [lrows[i] + rrows[j] for i, j in zip(li, ri)]
    if kind in ("left", "full"):
        matched, pad = set(li), (None,) * len(right.schema)
        rows += [row + pad for i, row in enumerate(lrows) if i not in matched]
    if kind in ("right", "full"):
        matched, pad = set(ri), (None,) * len(left.schema)
        rows += [pad + row for j, row in enumerate(rrows) if j not in matched]
    return rows


# ---------------------------------------------------------------------------
# outer union, subsumption, minimum union
# ---------------------------------------------------------------------------
def align_to_schema(table: Table, target: Schema) -> List[Row]:
    """Null-extend the rows of *table* to *target* (columns not present in
    the table's schema become NULL)."""
    return list(map(aligner(table.schema, target.columns), table.rows))


@_named("outer_union")
def outer_union(left: Table, right: Table, name: str = "") -> Table:
    """``⊎`` — null-extend both operands to the union schema and
    concatenate (no duplicate elimination)."""
    schema = left.schema.union(right.schema)
    rows = align_to_schema(left, schema) + align_to_schema(right, schema)
    return _result(name or "union", schema, rows)


def _signature(row: Row) -> Tuple[bool, ...]:
    return tuple(v is not None for v in row)


@_named("remove_subsumed")
def remove_subsumed(table: Table, name: str = "") -> Table:
    """``↓`` — remove every tuple subsumed by another tuple of *table*.

    Tuple ``t1`` subsumes ``t2`` iff they agree on every column where
    ``t2`` is non-null and ``t1`` has strictly fewer NULLs.

    Implementation: bucket rows by their null *signature* (which columns
    are non-null).  A tuple with signature ``s2`` can only be subsumed by a
    tuple whose signature is a strict superset ``s1 ⊃ s2`` that agrees on
    ``s2``'s non-null positions.  The number of distinct signatures equals
    the number of normal-form terms that produced the rows, which is small,
    so the pairwise signature loop is cheap while each membership test is a
    hash lookup.
    """
    buckets: Dict[Tuple[bool, ...], List[Row]] = {}
    for row in table.rows:
        buckets.setdefault(_signature(row), []).append(row)

    signatures = list(buckets)
    # Pre-compute, per signature, projections of its rows keyed by the
    # non-null positions of *smaller* signatures.
    survivors: List[Row] = []
    for sig in signatures:
        positions = [i for i, nn in enumerate(sig) if nn]
        supersets = [
            s
            for s in signatures
            if s != sig
            and all(s[i] for i in positions)
            and any(s[i] and not sig[i] for i in range(len(sig)))
        ]
        if not supersets:
            survivors.extend(buckets[sig])
            continue
        subsumer_keys = set()
        for s in supersets:
            for row in buckets[s]:
                subsumer_keys.add(tuple(row[i] for i in positions))
        for row in buckets[sig]:
            if tuple(row[i] for i in positions) not in subsumer_keys:
                survivors.append(row)
    return _result(name or table.name, table.schema, survivors, key=table.key)


def minimum_union(left: Table, right: Table, name: str = "") -> Table:
    """``⊕`` — outer union followed by removal of subsumed tuples."""
    return remove_subsumed(outer_union(left, right), name=name or "minunion")


@_named("fixup")
def fixup(
    table: Table,
    group_key: Sequence[str],
    name: str = "",
    positions: Optional[Sequence[int]] = None,
) -> Table:
    """Duplicate elimination plus *keyed* subsumption removal.

    This is the clean-up the left-deep associativity rules (Section 4.1)
    require after a null-if: spurious null-extended rows are duplicates of,
    or subsumed by, rows sharing the same *group_key* (the unique key of
    the left operand chain).  Restricting subsumption to groups keeps the
    operation linear — and a group of one has nothing to subsume, so rows
    are only grouped when some group key repeats.
    """
    rows = distinct(table).rows
    if positions is None:
        positions = table.schema.positions(group_key)
    keys = list(map(shaper(positions), rows))
    if len(set(keys)) < len(keys):
        groups: Dict[Row, List[Row]] = {}
        for key, row in zip(keys, rows):
            groups.setdefault(key, []).append(row)
        rows = []
        for group in groups.values():
            if len(group) > 1:
                group = remove_subsumed(Table("g", table.schema, group)).rows
            rows.extend(group)
    return _result(name or table.name, table.schema, rows, key=table.key)


# ---------------------------------------------------------------------------
# set helpers used when applying deltas
# ---------------------------------------------------------------------------
@_named("union_all")
def union_all(left: Table, right: Table, name: str = "") -> Table:
    """Bag union of two tables over the same column set."""
    if set(left.schema.columns) != set(right.schema.columns):
        raise SchemaError("union_all requires identical column sets")
    if left.schema == right.schema:
        extra = right.rows
    else:
        reorder = right.schema.positions(left.schema.columns)
        extra = list(map(shaper(reorder), right.rows))
    return _result(
        name or left.name,
        left.schema,
        left.rows + extra,
        not_null=left.not_null & right.not_null,
    )
