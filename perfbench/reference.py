"""Plain, non-oblivious reference answers the benchmark checks outputs against.

Everything here is ordinary dict-and-sort Python over row tuples, written
from the operators' contracts rather than from the engines' code:

* an equi-join emits ``left_row + right_row`` for every matching pair; its
  canonical order groups rows by the join key's dictionary code, then
  runs row-major over the left and right input positions;
* ``order_by`` is a stable sort; ``filter`` keeps input order;
* ``group_by`` and ``join_aggregate`` produce one row per key, compared as
  multisets.
"""

from __future__ import annotations

from collections import Counter, defaultdict


def positions_by_key(rows, column: int) -> dict:
    """Key value -> ascending input positions of the rows holding it."""
    index = defaultdict(list)
    for position, row in enumerate(rows):
        index[row[column]].append(position)
    return index


def first_seen_codes(*columns) -> dict:
    """Dictionary codes in first-seen order over the given value columns."""
    codes: dict = {}
    for column in columns:
        for value in column:
            codes.setdefault(value, len(codes))
    return codes


def join(left, right, left_col: int, right_col: int, code=None) -> list[tuple]:
    """Equi-join rows in canonical order.

    ``code`` maps a key to its dictionary code (the group order); ``None``
    orders groups by the key itself, which is what int keys use.
    """
    right_index = positions_by_key(right, right_col)
    left_index = positions_by_key(left, left_col)
    keys = [key for key in left_index if key in right_index]
    keys.sort(key=(lambda key: key) if code is None else code.__getitem__)
    out = []
    for key in keys:
        matches = [right[position] for position in right_index[key]]
        for position in left_index[key]:
            row = left[position]
            out.extend(row + match for match in matches)
    return out


def join_three(root, first, second, root_cols, first_col: int, second_col: int):
    """``root ⋈ first ⋈ second`` (a star on ``root``) as a row multiset."""
    first_index = positions_by_key(first, first_col)
    second_index = positions_by_key(second, second_col)
    out = Counter()
    for row in root:
        for a in first_index.get(row[root_cols[0]], ()):
            for b in second_index.get(row[root_cols[1]], ()):
                out[row + first[a] + second[b]] += 1
    return out


def group_by(rows, key: int, value: int) -> Counter:
    """``(key, count, sum, min, max)`` per key, as a multiset."""
    groups = defaultdict(list)
    for row in rows:
        groups[row[key]].append(row[value])
    return Counter(
        (k, len(v), sum(v), min(v), max(v)) for k, v in groups.items()
    )


def join_aggregate(left, right, left_col, right_col, left_value, right_value):
    """``(key, pairs, sum left, sum right, sum product)`` per joined key."""
    right_values = defaultdict(list)
    for row in right:
        right_values[row[right_col]].append(row[right_value])
    left_values = defaultdict(list)
    for row in left:
        left_values[row[left_col]].append(row[left_value])
    out = Counter()
    for key, lvals in left_values.items():
        rvals = right_values.get(key)
        if not rvals:
            continue
        out[
            (
                key,
                len(lvals) * len(rvals),
                sum(lvals) * len(rvals),
                sum(rvals) * len(lvals),
                sum(lvals) * sum(rvals),
            )
        ] += 1
    return out


def filter_rows(rows, column: int, threshold) -> list[tuple]:
    """Rows whose ``column`` exceeds ``threshold``, in input order."""
    return [row for row in rows if row[column] > threshold]


def order_by(rows, columns) -> list[tuple]:
    """Stable sort by ``[(column index, ascending), ...]``."""
    out = list(rows)
    for column, ascending in reversed(columns):
        out.sort(key=lambda row: row[column], reverse=not ascending)
    return out
