"""Stream bookkeeping for rate-splitting precoders.

A precoder matrix carries ``1 + G + K`` columns in a fixed order: one
global common stream, then one per-group stream per group, then one
private stream per user. One-layer rate splitting is the layout with no
groups, ``G == 0``: one common stream and the private streams.

The index arrays that the rate code gathers with are computed once per
layout, on first use, and kept on it read-only. They are not dataclass
fields, so ``==`` and ``hash`` see only the four fields.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["StreamLayout"]


@dataclass(frozen=True)
class StreamLayout:
    """Who listens to which stream.

    Attributes
    ----------
    n_tx : int
        Transmit antennas.
    n_users : int
        Single-antenna receivers.
    n_groups : int
        User groups, 0 for one-layer rate splitting.
    group_of : tuple of int
        ``group_of[k]`` is the group index of user k; empty without groups.
    """

    n_tx: int
    n_users: int
    n_groups: int
    group_of: tuple

    def __post_init__(self):
        if self.n_tx < 1 or self.n_users < 1 or self.n_groups < 0:
            raise ValueError("n_tx and n_users must be >= 1, n_groups >= 0")
        want = self.n_users if self.n_groups else 0
        if len(self.group_of) != want:
            raise ValueError(
                f"group_of must have {want} entries (one per user, none "
                f"without groups), got {len(self.group_of)}")
        for k, g in enumerate(self.group_of):
            if not 0 <= _group_index(g) < self.n_groups:
                raise ValueError(f"user {k} assigned to invalid group {g}")
        for g in range(self.n_groups):
            if g not in self.group_of:
                raise ValueError(f"group {g} has no members")

    # -- constructors -------------------------------------------------

    @classmethod
    def one_layer(cls, n_tx: int, n_users: int) -> "StreamLayout":
        """Single common stream plus private streams; no group layer."""
        return cls(n_tx=n_tx, n_users=n_users, n_groups=0, group_of=())

    @classmethod
    def hierarchical(cls, n_tx: int, n_users: int, n_groups: int,
                     group_of=None) -> "StreamLayout":
        """Global common, per-group common, and private streams.

        Without an explicit ``group_of``, users are split into contiguous
        equal-size groups (requires n_users divisible by n_groups).
        """
        if not n_groups >= 1:
            raise ValueError(f"n_groups must be >= 1, got {n_groups}")
        if group_of is None:
            if n_users % n_groups != 0:
                raise ValueError(
                    f"cannot split {n_users} users into {n_groups} equal groups; "
                    "pass group_of explicitly")
            per = n_users // n_groups
            group_of = tuple(k // per for k in range(n_users))
        return cls(n_tx=n_tx, n_users=n_users, n_groups=n_groups,
                   group_of=tuple(_group_index(g) for g in group_of))

    # -- column map ---------------------------------------------------

    @property
    def n_streams(self) -> int:
        """Precoder columns: common, one per group, one per user."""
        return 1 + self.n_groups + self.n_users

    @property
    def col_common(self) -> int:
        return 0

    def col_group(self, g: int) -> int:
        if not 0 <= g < self.n_groups:
            raise IndexError(f"group {g} out of range")
        return 1 + g

    def col_private(self, k: int) -> int:
        if not 0 <= k < self.n_users:
            raise IndexError(f"user {k} out of range")
        return 1 + self.n_groups + k

    @cached_property
    def user_rows(self) -> np.ndarray:
        """Read-only ``arange(n_users)``: one row per user."""
        return _read_only(np.arange(self.n_users))

    @cached_property
    def own_group_cols(self) -> np.ndarray:
        """Read-only column of each user's group stream, ``1 + group_of``;
        empty without groups."""
        return _read_only(1 + np.array(self.group_of, dtype=int))

    @cached_property
    def layer_rows(self) -> np.ndarray:
        """Read-only (n_layers, n_users) row of each user's own stream in
        each layer it decodes (common, its group's when there are groups,
        its private) among the rows of stream-major powers: the power of
        column ``c`` at user ``k`` is row ``c * n_users + k``."""
        cols = [np.zeros(self.n_users, dtype=int)]
        if self.n_groups:
            cols.append(self.own_group_cols)
        cols.append(1 + self.n_groups + self.user_rows)
        return _read_only(np.stack(cols) * self.n_users + self.user_rows)

    @cached_property
    def member_rows(self) -> tuple:
        """Read-only index array of each group's members, ascending."""
        return tuple(_read_only(np.array(self.group_members(g), dtype=int))
                     for g in range(self.n_groups))

    def group_members(self, g: int) -> tuple:
        """Users belonging to group g, ascending."""
        if not 0 <= g < self.n_groups:
            raise IndexError(f"group {g} out of range")
        return tuple(k for k, gk in enumerate(self.group_of) if gk == g)


def _group_index(g) -> int:
    """``g`` as an int; ValueError, naming ``group_of``, if it is not one."""
    if not isinstance(g, numbers.Integral):
        raise ValueError(f"group_of must hold integer group indices, "
                         f"got {g!r}")
    return int(g)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
