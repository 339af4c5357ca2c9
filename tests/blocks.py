"""Test helper: point counts that cut a network's sweep into solve blocks."""

from dakit.mna import _block_width


def widest_block(net):
    """The most points that a sweep of net solves in one block."""
    points = 1
    while _block_width(net._plan, points + 1) == points + 1:
        points += 1
    return points


def block_points(net, blocks, partial=True):
    """The fewest points that a sweep of net solves in `blocks` blocks, the
    last one narrower than the others if partial, as wide if not."""
    points = widest_block(net) * (blocks - 1) + 1
    while True:
        width = _block_width(net._plan, points)
        if -(-points // width) == blocks and bool(points % width) == partial:
            return points
        points += 1


def points_for(net, points):
    """points itself if it is a count; else the point count of a named
    partition of net's sweep: "1-full" for one block as wide as the budget
    allows, "2-partial" for the fewest points in two blocks, the last one
    partial, "3-full" and so on."""
    if not isinstance(points, str):
        return points
    blocks, kind = points.split("-")
    if (blocks, kind) == ("1", "full"):
        return widest_block(net)
    return block_points(net, int(blocks), kind == "partial")
