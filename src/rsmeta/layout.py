"""Stream bookkeeping for rate-splitting precoders.

A precoder matrix always carries ``1 + G + K`` columns in a fixed order:
one global common stream, then one per-group stream per group, then one
private stream per user. One-layer operation is the same layout with the
group block structurally unused, so both modes share every code path.

The column map and the index arrays that the rate code gathers with are
computed once per layout, on first use, and kept on it read-only. They are
not dataclass fields, so ``==`` and ``hash`` see only the five fields.
"""
from __future__ import annotations

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
        User groups. One-layer mode keeps the group streams allocated but
        inactive (zero columns, excluded from rates and gradients).
    group_of : tuple of int
        ``group_of[k]`` is the group index of user k.
    mode : str
        ``"one_layer"`` or ``"hierarchical"``.
    """

    n_tx: int
    n_users: int
    n_groups: int
    group_of: tuple
    mode: str = "hierarchical"

    def __post_init__(self):
        if self.n_tx < 1 or self.n_users < 1 or self.n_groups < 1:
            raise ValueError("n_tx, n_users, n_groups must all be >= 1")
        if self.mode not in ("one_layer", "hierarchical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.group_of) != self.n_users:
            raise ValueError("group_of must assign every user")
        for k, g in enumerate(self.group_of):
            if not 0 <= g < self.n_groups:
                raise ValueError(f"user {k} assigned to invalid group {g}")
        for g in range(self.n_groups):
            if g not in self.group_of:
                raise ValueError(f"group {g} has no members")

    # -- constructors -------------------------------------------------

    @classmethod
    def one_layer(cls, n_tx: int, n_users: int) -> "StreamLayout":
        """Single common stream plus private streams; no group layer."""
        return cls(n_tx=n_tx, n_users=n_users, n_groups=1,
                   group_of=tuple([0] * n_users), mode="one_layer")

    @classmethod
    def hierarchical(cls, n_tx: int, n_users: int, n_groups: int,
                     group_of=None) -> "StreamLayout":
        """Global common, per-group common, and private streams.

        Without an explicit ``group_of``, users are split into contiguous
        equal-size groups (requires n_users divisible by n_groups).
        """
        if group_of is None:
            if n_users % n_groups != 0:
                raise ValueError(
                    f"cannot split {n_users} users into {n_groups} equal groups; "
                    "pass group_of explicitly")
            per = n_users // n_groups
            group_of = tuple(k // per for k in range(n_users))
        return cls(n_tx=n_tx, n_users=n_users, n_groups=n_groups,
                   group_of=tuple(int(g) for g in group_of), mode="hierarchical")

    # -- column map ---------------------------------------------------

    @property
    def n_streams(self) -> int:
        """Total allocated precoder columns, active or not."""
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
    def active_streams(self) -> tuple:
        """Columns that carry power and enter rates and gradients.

        One-layer mode drops the group block; hierarchical keeps all.
        """
        cols = [self.col_common]
        if self.mode == "hierarchical":
            cols.extend(self.col_group(g) for g in range(self.n_groups))
        cols.extend(self.col_private(k) for k in range(self.n_users))
        return tuple(cols)

    @cached_property
    def active_cols(self) -> np.ndarray:
        """:attr:`active_streams` as a read-only index array."""
        return _read_only(np.array(self.active_streams, dtype=int))

    @cached_property
    def user_rows(self) -> np.ndarray:
        """Read-only ``arange(n_users)``: one row per user."""
        return _read_only(np.arange(self.n_users))

    @cached_property
    def own_group_cols(self) -> np.ndarray:
        """Read-only column of each user's group stream, ``1 + group_of``."""
        return _read_only(1 + np.array(self.group_of, dtype=int))

    @cached_property
    def layer_rows(self) -> np.ndarray:
        """Read-only (n_layers, n_users) row of each user's own stream in
        each layer it decodes (common, its group's in hierarchical mode,
        its private) among the rows of stream-major powers: the power of
        active column ``c`` at user ``k`` is row ``c * n_users + k``."""
        cols = [np.zeros(self.n_users, dtype=int)]
        if self.mode == "hierarchical":
            cols.append(self.own_group_cols)
        cols.append(len(self.active_streams) - self.n_users + self.user_rows)
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
