/**
 * @file
 * Routing: port naming, the XY/YX dimension-order algorithms used by
 * the paper's target architecture (deadlock-free on a mesh with no
 * turnaround), and the torus variant whose route entries carry the
 * dateline VC class that keeps wraparound links deadlock-free.
 *
 * A route decision is a RouteEntry: the output port plus the VC class
 * the packet must allocate on the downstream input. Mesh and cmesh
 * entries always carry VC_CLASS_ANY (any VC of the message's vnet),
 * which keeps the VA stage byte-for-byte identical to the
 * pre-Topology code on those fabrics.
 */

#ifndef INPG_NOC_ROUTING_HH
#define INPG_NOC_ROUTING_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/noc_config.hh"

namespace inpg {

/** Router port directions. Local attaches the tile's NI. */
enum class Direction : int {
    Local = 0,
    North = 1,
    East = 2,
    South = 3,
    West = 4,
};

/** Number of ports on a mesh router. */
inline constexpr int NUM_PORTS = 5;

/**
 * "Any VC of the vnet": the route imposes no dateline class. All mesh
 * and cmesh entries use this, as do torus hops that have already
 * crossed (or never cross) the wrap edge of their dimension.
 */
inline constexpr std::uint8_t VC_CLASS_ANY = 0xff;

/**
 * One routing decision: the output port and the downstream VC class
 * restriction (VC_CLASS_ANY, 0, or 1).
 */
struct RouteEntry {
    Direction dir = Direction::Local;
    std::uint8_t vcClass = VC_CLASS_ANY;

    bool
    operator==(const RouteEntry &o) const
    {
        return dir == o.dir && vcClass == o.vcClass;
    }
};

/** Short name ("L","N","E","S","W"). */
std::string directionName(Direction d);

/** Opposite direction; Local maps to Local. */
Direction opposite(Direction d);

/** (x, y) coordinates of a node on a width x height mesh. */
struct Coord {
    int x = 0;
    int y = 0;

    bool operator==(const Coord &o) const { return x == o.x && y == o.y; }
};

/**
 * Geometry of a rectangular mesh: node-id <-> coordinate mapping.
 * Node ids are row-major: id = y * width + x.
 */
class MeshShape
{
  public:
    MeshShape(int mesh_width, int mesh_height);

    int width() const { return meshWidth; }
    int height() const { return meshHeight; }
    int numNodes() const { return meshWidth * meshHeight; }

    Coord coordOf(NodeId id) const;
    NodeId idOf(Coord c) const;
    bool contains(Coord c) const;

    /** Neighbor node in the given direction; INVALID_NODE at the edge. */
    NodeId neighbor(NodeId id, Direction d) const;

    /** Manhattan hop distance between two nodes. */
    int hopDistance(NodeId a, NodeId b) const;

  private:
    int meshWidth;
    int meshHeight;
};

/**
 * Where a destination's decision sits in a router's compact route row
 * (see RoutingAlgorithm::fillRow): `first` is the destination router's
 * coordinate in the dimension routed first (x under XY, y under YX);
 * `second` is the first dimension's extent plus its coordinate in the
 * other dimension.
 */
struct RouteKey {
    std::uint16_t first = 0;
    std::uint16_t second = 0;
};

/**
 * Strategy interface: pick the output port (and downstream VC class)
 * toward a destination node. `here` is always a router id; `dst` is a
 * node (core) id -- under concentration several nodes share a router,
 * so the algorithm maps dst to its router before comparing
 * coordinates.
 *
 * Every algorithm here is dimension-order: while the destination
 * router differs from `here` in the first-routed coordinate, the
 * decision depends only on that coordinate (the torus dateline class
 * included, since it compares one coordinate pair); once aligned, only
 * on the other one. So a router's decisions fit in a compact row of
 * width + height entries instead of one per destination.
 */
class RoutingAlgorithm
{
  public:
    RoutingAlgorithm(MeshShape mesh_shape, RoutingKind order,
                     int concentration);
    virtual ~RoutingAlgorithm() = default;

    /**
     * @param here router evaluating the route
     * @param dst  final destination node
     * @return port to take from `here` (Local when dst attaches here)
     *         plus the VC class restriction for the next hop.
     */
    RouteEntry
    routeEntry(NodeId here, NodeId dst) const
    {
        return routeBetween(shape.coordOf(here),
                            shape.coordOf(dstRouter(dst)));
    }

    /** Port-only view of routeEntry() for callers and legacy tests. */
    Direction
    route(NodeId here, NodeId dst) const
    {
        return routeEntry(here, dst).dir;
    }

    /** Entries in one router's compact row: width + height. */
    std::size_t rowSize() const { return rowLen; }

    /**
     * Materialize router `here`'s decisions as its compact row so the
     * RC pipeline stage replaces the virtual call with two array reads
     * (see rowIndex()). Row layout: for every value of the first-routed
     * coordinate, a destination in `here`'s line of the other one;
     * then for every value of the other coordinate, one in `here`'s
     * first-routed line.
     */
    void fillRow(NodeId here, std::span<RouteEntry> row) const;

    /** Compact-row key of every destination node, indexed by node id. */
    const RouteKey *routeKeys() const { return keys.data(); }

    /** `first` of router `here`'s own key (its first-routed coordinate). */
    std::uint16_t
    firstCoordOf(NodeId here) const
    {
        return keys[static_cast<std::size_t>(here * conc)].first;
    }

    /**
     * Index into the compact row of the router whose first-routed
     * coordinate is `here_first`: the destination's first coordinate
     * while it differs, its second-dimension slot once aligned.
     */
    static std::size_t
    rowIndex(RouteKey key, std::uint16_t here_first)
    {
        return key.first != here_first ? key.first : key.second;
    }

  protected:
    /** Decision at router coordinate `here` toward router `dst`. */
    virtual RouteEntry routeBetween(Coord here, Coord dst) const = 0;

    /** Router serving a destination node. */
    NodeId dstRouter(NodeId dst) const { return dst / conc; }

    MeshShape shape;
    bool xFirst;
    int conc;

  private:
    std::size_t rowLen;
    std::vector<RouteKey> keys;
};

/** X-first-then-Y dimension-order routing. */
class XYRouting : public RoutingAlgorithm
{
  public:
    explicit XYRouting(MeshShape mesh_shape, int concentration = 1)
        : RoutingAlgorithm(mesh_shape, RoutingKind::XY, concentration)
    {}

  protected:
    RouteEntry routeBetween(Coord here, Coord dst) const override;
};

/**
 * Y-first-then-X dimension-order routing: the transposed deadlock-free
 * alternative. Useful for routing-sensitivity studies (hotspot traffic
 * toward the top/bottom memory-controller rows behaves differently).
 */
class YXRouting : public RoutingAlgorithm
{
  public:
    explicit YXRouting(MeshShape mesh_shape, int concentration = 1)
        : RoutingAlgorithm(mesh_shape, RoutingKind::YX, concentration)
    {}

  protected:
    RouteEntry routeBetween(Coord here, Coord dst) const override;
};

/**
 * Torus dimension-order routing: minimal-path per dimension (wrapping
 * when the wrap direction is shorter; ties break toward East/South),
 * X before Y under RoutingKind::XY and Y before X under YX. With
 * escape VCs enabled each hop carries a dateline class -- class 0
 * while the dimension's wrap edge is still ahead, class 1 after it --
 * which is what makes the wraparound rings acyclic (see
 * noc/topology.hh). With escape VCs disabled every entry is
 * VC_CLASS_ANY: deliberately deadlock-prone, for negative verifier
 * tests.
 */
class TorusRouting : public RoutingAlgorithm
{
  public:
    TorusRouting(MeshShape mesh_shape, RoutingKind order,
                 bool escape_vcs, int concentration = 1);

  protected:
    RouteEntry routeBetween(Coord here, Coord dst) const override;

  private:
    /** Decision for one dimension; Local when already aligned. */
    RouteEntry routeDim(int here_c, int dst_c, int extent,
                        Direction inc_dir, Direction dec_dir) const;

    bool escapeVcs;
};

} // namespace inpg

#endif // INPG_NOC_ROUTING_HH
