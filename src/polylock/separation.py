"""Separation planning for placed polyomino systems.

A plan removes pieces one move at a time: each move slides a rigid set of
pieces to infinity along one axis direction and takes it off the board.
Both planners run one farthest-first peel over groups of piece ids: at
each step, of the groups that can leave now, the one whose cells reach
farthest along the peel direction goes, ties broken by smallest id. A
singleton can leave once no piece its slide hits is still on the board,
so the singletons peel by Kahn's algorithm. `plan_uto` peels singletons
only and reports a witnessing cycle when the peel sticks. `separate_le5`
handles systems whose pieces have at most five cells: each U-pentomino
whose pocket opens up or down is grouped with the piece sitting in its
pocket, and the members of a multi-piece group exit along the other axis.
If every such peel jams, a second pass lets a multi-piece group whose
members cannot leave one by one slide out whole in the peel direction; its
union is row-contiguous, so it moves like one well-behaved shape. Plans are
never trusted: `simulate_plan` replays them move by move.

The layer works on world cells and piece ids only: a group is the frozenset
of its members' ids, and no shape object is built for it. Every slide query
here is `Configuration.blockers`, which reads one `grid.Lanes` index per
axis, built on first use and kept on the configuration; the `Lanes`
docstring states the exact lane rule. The index always holds the whole
board: the peels and the replay keep the set of pieces still on it and
intersect each answer with that set, so planning and replaying one
configuration share one index per axis. `group_le5` finds U pockets with
`classify.u_pocket` and the piece in one with `Configuration.owner`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

from .classify import monotone_closure, u_pocket
from .grid import DIRECTIONS, Cell, Configuration, Direction

#: Largest piece size the grouping planner accepts.
GROUPABLE_MAX_CELLS = 5


class PlanError(ValueError):
    """A plan names pieces that do not fit the configuration."""


class OversizedPieceError(ValueError):
    """A piece exceeds the cell budget the grouping planner supports."""

    def __init__(self, piece_id: str, size: int):
        self.piece_id = piece_id
        self.size = size
        super().__init__(
            f"piece {piece_id!r} has {size} cells; grouping requires at most "
            f"{GROUPABLE_MAX_CELLS}"
        )


class InvariantViolationError(RuntimeError):
    """A structural guarantee the planner relies on failed to hold."""


@dataclass(frozen=True)
class BlockingGraph:
    """Who stops whom when every piece slides the same way.

    An edge (blocker, blocked) is present exactly when sliding `blocked`
    arbitrarily far in `direction` would hit `blocker`.
    """

    direction: Direction
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class Move:
    """Slide these pieces rigidly to infinity, then remove them."""

    piece_ids: frozenset[str]
    direction: Direction

    def __post_init__(self):
        if not self.piece_ids:
            raise ValueError("a move needs at least one piece")


@dataclass(frozen=True)
class SeparationPlan:
    moves: tuple[Move, ...]


@dataclass(frozen=True)
class NoUto:
    """Failure value for `plan_uto`: no single-direction plan exists.

    `cycle` lists piece ids such that each entry is blocked by the next,
    wrapping around at the end.
    """

    direction: Direction
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class SimulationReport:
    valid: bool
    failure_index: int | None = None
    collision: tuple[str, str] | None = None
    leftover: frozenset[str] = frozenset()


def _extreme(cells: Iterable[Cell], direction: Direction) -> int:
    """Largest coordinate of any cell measured along the direction."""
    return max(x * direction.dx + y * direction.dy for x, y in cells)


def blocking_graph(config: Configuration, direction: Direction) -> BlockingGraph:
    """Exact pairwise blocking relation for infinite slides in `direction`."""
    ids = config.piece_ids()
    edges = {
        (blocker, blocked)
        for blocked in ids
        for blocker in config.blockers((blocked,), direction)
    }
    return BlockingGraph(
        direction=direction, nodes=frozenset(ids), edges=frozenset(edges)
    )


def _find_cycle(blockers: dict[str, set[str]], nodes: set[str]) -> tuple[str, ...]:
    """Some directed cycle in the blocked-by relation restricted to `nodes`,
    where every node has a blocker among `nodes`, as a stuck peel leaves.

    From the smallest id, walk to each piece's smallest blocker still in
    `nodes` until a piece repeats; the cycle is the walk from that piece.
    """
    path: dict[str, int] = {}
    node = min(nodes)
    while node not in path:
        path[node] = len(path)
        node = min(blockers[node] & nodes, default=None)
        if node is None:
            raise AssertionError("every stuck peel has a cycle to witness it")
    return tuple(path)[path[node]:]


def _peel(
    config: Configuration,
    groups: Iterable[frozenset[str]],
    direction: Direction,
    rigid: bool,
) -> tuple[list[Move], set[str], dict[str, set[str]]]:
    """The farthest-first peel of `groups`: its moves, the pieces it leaves
    on the board, and the pieces each singleton's slide hits.

    Every group is keyed (-extreme of its cells, smallest id), and both the
    heap of singletons and the sorted list of multi-piece groups hold
    (-extreme, smallest id, group) triples; no two groups share a smallest
    id, so comparing entries never reaches the groups. Each singleton counts
    the pieces its slide hits that are still on the board, and enters the
    heap when that count is 0. A multi-piece group is tried at a step only
    while its key is below the heap top: through
    `_member_exit_moves`, or with `rigid` by sliding out whole. Pieces
    never move before they leave, so every key is fixed up front.
    """
    cells = config.cell_map()
    on_board = set(cells)
    entry: dict[str, tuple[int, str, frozenset[str]]] = {}
    pending = []
    for group in groups:
        if len(group) == 1:
            (pid,) = group
            entry[pid] = (-_extreme(cells[pid], direction), pid, group)
        else:
            union = (cell for pid in group for cell in cells[pid])
            pending.append((-_extreme(union, direction), min(group), group))
    pending.sort()
    hits = {pid: config.blockers((pid,), direction) for pid in entry}
    blocks: dict[str, list[str]] = {pid: [] for pid in cells}
    for blocked, found in hits.items():
        for blocker in found:
            blocks[blocker].append(blocked)
    waiting = {pid: len(found) for pid, found in hits.items()}
    ready = [entry[pid] for pid in entry if not waiting[pid]]
    heapq.heapify(ready)
    moves: list[Move] = []
    while True:
        exit_moves = None
        for position, ahead in enumerate(pending):
            if ready and ready[0] < ahead:
                break
            group = ahead[2]
            exit_moves = _member_exit_moves(config, on_board, group)
            if exit_moves is None and rigid:
                if not config.blockers(group, direction) & on_board:
                    exit_moves = [Move(group, direction)]
            if exit_moves is not None:
                del pending[position]
                break
        if exit_moves is None:
            if not ready:
                return moves, on_board, hits
            group = heapq.heappop(ready)[2]
            exit_moves = [Move(group, direction)]
        moves += exit_moves
        on_board -= group
        for gone in group:
            for blocked in blocks[gone]:
                waiting[blocked] -= 1
                if not waiting[blocked]:
                    heapq.heappush(ready, entry[blocked])


def plan_uto(config: Configuration, direction: Direction) -> SeparationPlan | NoUto:
    """Single-direction plan: the peel of every piece on its own.

    When the peel sticks, every piece left is still waiting on a piece
    left, so the result is a `NoUto` carrying the cycle that `_find_cycle`
    closes by one `min` per visited piece over the peel's own hit sets.
    """
    singletons = (frozenset({pid}) for pid in config.piece_ids())
    moves, left, hits = _peel(config, singletons, direction, rigid=False)
    if left:
        return NoUto(direction, _find_cycle(hits, left))
    return SeparationPlan(tuple(moves))


def simulate_plan(config: Configuration, plan: SeparationPlan) -> SimulationReport:
    """Replay a plan with exact slide tests; the board must end empty.

    A move is legal when the rigid union of its pieces can slide to infinity
    without touching any piece still on the board. Raises `PlanError` when
    the plan names an unknown piece or covers a piece twice. On an illegal
    move the collision names the smallest piece id the union hits and the
    first mover, by id, that hits it alone; the leftover is every piece
    still on the board, movers included.
    """
    on_board = set(config.piece_ids())
    seen: set[str] = set()
    for move in plan.moves:
        for pid in sorted(move.piece_ids):
            if pid not in on_board:
                raise PlanError(f"plan references unknown piece {pid!r}")
            if pid in seen:
                raise PlanError(f"piece {pid!r} is covered by two moves")
            seen.add(pid)

    for index, move in enumerate(plan.moves):
        hit = config.blockers(move.piece_ids, move.direction) & on_board
        if hit:
            other = min(hit)
            witness = next(
                pid
                for pid in sorted(move.piece_ids)
                if other in config.blockers((pid,), move.direction)
            )
            return SimulationReport(
                valid=False,
                failure_index=index,
                collision=(witness, other),
                leftover=frozenset(on_board),
            )
        on_board -= move.piece_ids

    leftover = frozenset(on_board)
    return SimulationReport(valid=not leftover, leftover=leftover)


def group_le5(config: Configuration) -> list[frozenset[str]]:
    """Bundle vertically opening U-pentominoes with their pocket fillers.

    A group is the set of its members' piece ids, and every other piece
    stays a singleton; groups come sorted by their smallest id. The union
    of each group's cells must come out row-contiguous and groups never
    exceed three members; either failing is an invariant violation, not a
    planning failure. An empty-pocket vertical U is exempt from the row
    check, since its filled 2x3 closure always passes it.
    """
    for pid, cells in config.cell_map().items():
        if len(cells) > GROUPABLE_MAX_CELLS:
            raise OversizedPieceError(pid, len(cells))

    parent = {pid: pid for pid in config.piece_ids()}

    def find(pid: str) -> str:
        while parent[pid] != pid:
            parent[pid] = parent[parent[pid]]
            pid = parent[pid]
        return pid

    vertical_us: set[str] = set()
    for pid in config.piece_ids():
        found = u_pocket(config.cells_of(pid))
        if found is not None and found[1].axis == "y":
            vertical_us.add(pid)
            occupant = config.owner(found[0])
            if occupant is not None:
                roots = find(pid), find(occupant)
                parent[max(roots)] = min(roots)

    members_by_root: dict[str, list[str]] = {}
    for pid in config.piece_ids():
        members_by_root.setdefault(find(pid), []).append(pid)

    groups: list[frozenset[str]] = []
    for members in members_by_root.values():
        if len(members) > 3:
            raise InvariantViolationError(
                f"group {sorted(members)} has more than three members"
            )
        if len(members) > 1 or members[0] not in vertical_us:
            cells = frozenset().union(*map(config.cells_of, members))
            if monotone_closure(cells, "y") != cells:
                raise InvariantViolationError(
                    f"group {sorted(members)} union is not row-contiguous"
                )
        groups.append(frozenset(members))
    groups.sort(key=min)
    return groups


def _exit_preferences(
    board: Configuration, group: frozenset[str]
) -> tuple[list[str], dict[str, tuple[Direction, Direction]]]:
    """Member order and per-member direction order for in-group exits.

    Pieces sitting in a pocket go before the U's that pocket them, and each
    piece tries the opening of its U first. The caller still validates every
    candidate, so the preference only shapes which valid plan is found.
    """
    openings = {}
    pocket_of: dict[str, Cell] = {}
    for pid in group:
        found = u_pocket(board.cells_of(pid))
        if found is not None and found[1].axis == "y":
            pocket_of[pid], openings[pid] = found
    for pid in sorted(group):
        if pid in openings:
            continue
        cells = board.cells_of(pid)
        hosts = sorted(u for u, pocket in pocket_of.items() if pocket in cells)
        if hosts:
            openings[pid] = openings[hosts[0]]
    ordered = sorted(group, key=lambda pid: (pid in pocket_of, pid))
    prefs = {}
    for pid in ordered:
        first = openings.get(pid, Direction.POS_Y)
        prefs[pid] = (first, first.opposite)
    return ordered, prefs


def _member_exit_moves(
    config: Configuration, on_board: set[str], group: frozenset[str]
) -> list[Move] | None:
    """Exit the group's members one by one along its internal axis.

    Tries member orders and signs until a sequence is fully clear against
    everything still on the board (`on_board`, less the members that
    already left), preferring pocket fillers first through their opening.
    Returns None when every sequence is blocked.
    """
    ordered, prefs = _exit_preferences(config, group)
    for perm in itertools.permutations(ordered):
        for signs in itertools.product(*(prefs[pid] for pid in perm)):
            left: set[str] = set()
            moves: list[Move] = []
            for pid, direction in zip(perm, signs):
                if (config.blockers((pid,), direction) & on_board) - left:
                    break
                moves.append(Move(frozenset({pid}), direction))
                left.add(pid)
            else:
                return moves
    return None


def separate_le5(config: Configuration) -> SeparationPlan:
    """Full separation plan for a system of pieces with at most five cells.

    The groups are peeled along each axis direction in turn, +x first,
    with member exits only and then with rigid exits too; the first peel
    that empties the board and passes simulation is the plan. Exhausting
    both passes means a guarantee this planner is built on has failed, so
    that raises instead of returning.
    """
    groups = group_le5(config)
    if not groups:
        return SeparationPlan(())
    for rigid in (False, True):
        for direction in DIRECTIONS:
            moves, left, _ = _peel(config, groups, direction, rigid)
            plan = SeparationPlan(tuple(moves))
            if not left and simulate_plan(config, plan).valid:
                return plan
    raise InvariantViolationError(
        "no one-shot separation plan found for a system of pieces "
        "with at most five cells"
    )


__all__ = [
    "BlockingGraph",
    "GROUPABLE_MAX_CELLS",
    "InvariantViolationError",
    "Move",
    "NoUto",
    "OversizedPieceError",
    "PlanError",
    "SeparationPlan",
    "SimulationReport",
    "blocking_graph",
    "group_le5",
    "plan_uto",
    "separate_le5",
    "simulate_plan",
]
