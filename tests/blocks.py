"""Test helpers: point counts that cut a network's sweep into solve blocks,
the slot program that a network's plan was compiled from, and named reads
of a network's stamp groups."""

from dakit.mna import _C, _G, _GAMMA, Capacitor, Inductor, Resistor, Vccs, _block_width, _symbolic

_KIND = {Resistor: _G, Capacitor: _C, Inductor: _GAMMA}


def slot_program(net):
    """The slot program of net's plan, rebuilt from its topology by the
    analysis's symbolic step: (kk, [kj, ...], [(ij, ik, kj), ...]) per
    pivot, in elimination order, on slots."""
    topology = tuple(
        (_G, e.out_p, e.out_m, e.ctrl_p, e.ctrl_m) if isinstance(e, Vccs)
        else (_KIND[type(e)], e.a, e.b)
        for e in net.elements
    )
    return _symbolic(net.node_count, net.port1.node, net.port2.node, topology)[2]


def group_count(net):
    """The number of net's stamp groups: slots whose G, C and Gamma have the
    same bits, under the plan's grouping."""
    return net._table.shape[1]


def group_stamps(net):
    """net's group table, a (3, groups) float64 array: G, C and Gamma of
    each stamp group, so that g, c, gamma = group_stamps(net)."""
    return net._table


def slot_groups(net):
    """The stamp group of each slot of net's plan, an intp array."""
    return net._grouping[0]


def port_rows(net):
    """The block rows that a solve copies Y11, Y12, Y21 and Y22 out of."""
    return net._grouping[-1]


def block_rows(net):
    """The rows of net's solve block at each frequency: the plan's
    registers, then the network's group table."""
    return net._plan.registers + group_count(net)


def widest_block(net):
    """The most points that a sweep of net solves in one block."""
    rows = block_rows(net)
    points = 1
    while _block_width(rows, points + 1) == points + 1:
        points += 1
    return points


def block_points(net, blocks, partial=True):
    """The fewest points that a sweep of net solves in `blocks` blocks: if
    partial, a count that blocks of equal width do not divide, so the last
    block starts early and solves again points of the one before it; if
    not, a count that they divide."""
    rows = block_rows(net)
    points = widest_block(net) * (blocks - 1) + 1
    while True:
        width = _block_width(rows, points)
        if -(-points // width) == blocks and bool(points % width) == partial:
            return points
        points += 1


def points_for(net, points):
    """points itself if it is a count; else the point count of a named
    partition of net's sweep: "1-full" for one block as wide as the budget
    allows, "2-partial" for the fewest points in two blocks, the last one
    starting early to be as wide as the first, "3-full" for the fewest in
    three blocks that meet end to end, and so on."""
    if not isinstance(points, str):
        return points
    blocks, kind = points.split("-")
    if (blocks, kind) == ("1", "full"):
        return widest_block(net)
    return block_points(net, int(blocks), kind == "partial")
