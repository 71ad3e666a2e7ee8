#include "noc/routing.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace inpg {

std::string
directionName(Direction d)
{
    switch (d) {
      case Direction::Local:
        return "L";
      case Direction::North:
        return "N";
      case Direction::East:
        return "E";
      case Direction::South:
        return "S";
      case Direction::West:
        return "W";
    }
    return "?";
}

Direction
opposite(Direction d)
{
    switch (d) {
      case Direction::Local:
        return Direction::Local;
      case Direction::North:
        return Direction::South;
      case Direction::East:
        return Direction::West;
      case Direction::South:
        return Direction::North;
      case Direction::West:
        return Direction::East;
    }
    panic("bad direction");
}

MeshShape::MeshShape(int mesh_width, int mesh_height)
    : meshWidth(mesh_width), meshHeight(mesh_height)
{
    if (mesh_width < 1 || mesh_height < 1)
        fatal("mesh dimensions must be positive (%dx%d)", mesh_width,
              mesh_height);
}

Coord
MeshShape::coordOf(NodeId id) const
{
    INPG_ASSERT(id >= 0 && id < numNodes(), "node id %d out of range", id);
    return Coord{id % meshWidth, id / meshWidth};
}

NodeId
MeshShape::idOf(Coord c) const
{
    INPG_ASSERT(contains(c), "coord (%d,%d) outside mesh", c.x, c.y);
    return c.y * meshWidth + c.x;
}

bool
MeshShape::contains(Coord c) const
{
    return c.x >= 0 && c.x < meshWidth && c.y >= 0 && c.y < meshHeight;
}

NodeId
MeshShape::neighbor(NodeId id, Direction d) const
{
    Coord c = coordOf(id);
    switch (d) {
      case Direction::North:
        --c.y;
        break;
      case Direction::South:
        ++c.y;
        break;
      case Direction::East:
        ++c.x;
        break;
      case Direction::West:
        --c.x;
        break;
      case Direction::Local:
        return id;
    }
    return contains(c) ? idOf(c) : INVALID_NODE;
}

int
MeshShape::hopDistance(NodeId a, NodeId b) const
{
    Coord ca = coordOf(a);
    Coord cb = coordOf(b);
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

RoutingAlgorithm::RoutingAlgorithm(MeshShape mesh_shape, RoutingKind order,
                                   int concentration)
    : shape(mesh_shape), xFirst(order == RoutingKind::XY),
      conc(concentration),
      rowLen(static_cast<std::size_t>(shape.width() + shape.height()))
{
    INPG_ASSERT(rowLen <= 0xffff, "%dx%d grid overflows the route keys",
                shape.width(), shape.height());
    const int first_extent = xFirst ? shape.width() : shape.height();
    keys.resize(static_cast<std::size_t>(shape.numNodes() * conc));
    for (std::size_t node = 0; node < keys.size(); ++node) {
        const Coord c = shape.coordOf(dstRouter(static_cast<NodeId>(node)));
        keys[node].first = static_cast<std::uint16_t>(xFirst ? c.x : c.y);
        keys[node].second =
            static_cast<std::uint16_t>(first_extent + (xFirst ? c.y : c.x));
    }
}

void
RoutingAlgorithm::fillRow(NodeId here, std::span<RouteEntry> row) const
{
    INPG_ASSERT(row.size() == rowLen, "route row of %zu", row.size());
    const Coord h = shape.coordOf(here);
    std::size_t i = 0;
    const auto along_x = [&] {
        for (int x = 0; x < shape.width(); ++x)
            row[i++] = routeBetween(h, {x, h.y});
    };
    const auto along_y = [&] {
        for (int y = 0; y < shape.height(); ++y)
            row[i++] = routeBetween(h, {h.x, y});
    };
    if (xFirst) {
        along_x();
        along_y();
    } else {
        along_y();
        along_x();
    }
}

RouteEntry
YXRouting::routeBetween(Coord ch, Coord cd) const
{
    if (ch.y < cd.y)
        return {Direction::South, VC_CLASS_ANY};
    if (ch.y > cd.y)
        return {Direction::North, VC_CLASS_ANY};
    if (ch.x < cd.x)
        return {Direction::East, VC_CLASS_ANY};
    if (ch.x > cd.x)
        return {Direction::West, VC_CLASS_ANY};
    return {Direction::Local, VC_CLASS_ANY};
}

RouteEntry
XYRouting::routeBetween(Coord ch, Coord cd) const
{
    if (ch.x < cd.x)
        return {Direction::East, VC_CLASS_ANY};
    if (ch.x > cd.x)
        return {Direction::West, VC_CLASS_ANY};
    if (ch.y < cd.y)
        return {Direction::South, VC_CLASS_ANY};
    if (ch.y > cd.y)
        return {Direction::North, VC_CLASS_ANY};
    return {Direction::Local, VC_CLASS_ANY};
}

TorusRouting::TorusRouting(MeshShape mesh_shape, RoutingKind order,
                           bool escape_vcs, int concentration)
    : RoutingAlgorithm(mesh_shape, order, concentration),
      escapeVcs(escape_vcs)
{
    if (shape.width() < 3 || shape.height() < 3)
        fatal("torus needs at least a 3x3 router grid (%dx%d): smaller "
              "rings make the wrap link coincide with the mesh link",
              shape.width(), shape.height());
}

RouteEntry
TorusRouting::routeDim(int here_c, int dst_c, int extent,
                       Direction inc_dir, Direction dec_dir) const
{
    if (here_c == dst_c)
        return {Direction::Local, VC_CLASS_ANY};
    // Minimal path around the ring; ties break toward the increasing
    // direction so the decision is a pure function of the coordinates.
    const int delta_inc = (dst_c - here_c + extent) % extent;
    const bool go_inc = 2 * delta_inc <= extent;
    std::uint8_t cls = VC_CLASS_ANY;
    if (escapeVcs) {
        // Dateline rule: class 0 while the wrap edge of this ring is
        // still ahead, class 1 once past it (or when the path never
        // wraps). Increasing direction wraps iff here > dst; the
        // decreasing one iff here < dst.
        if (go_inc)
            cls = here_c > dst_c ? 0 : 1;
        else
            cls = here_c < dst_c ? 0 : 1;
    }
    return {go_inc ? inc_dir : dec_dir, cls};
}

RouteEntry
TorusRouting::routeBetween(Coord ch, Coord cd) const
{
    const RouteEntry x_hop = routeDim(ch.x, cd.x, shape.width(),
                                      Direction::East, Direction::West);
    const RouteEntry y_hop = routeDim(ch.y, cd.y, shape.height(),
                                      Direction::South, Direction::North);
    if (xFirst)
        return x_hop.dir != Direction::Local ? x_hop : y_hop;
    return y_hop.dir != Direction::Local ? y_hop : x_hop;
}

} // namespace inpg
