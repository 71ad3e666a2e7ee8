#include "inpg/lock_barrier_table.hh"

#include <algorithm>

#include "coh/protocol_tables.hh"
#include "common/logging.hh"

namespace inpg {

LockBarrierTable::LockBarrierTable(std::size_t max_barriers,
                                   std::size_t max_eis, Cycle ttl_cycles)
    : stats("barrier_table"), barrierCapacity(max_barriers),
      eiCapacity(max_eis), ttl(ttl_cycles)
{
    INPG_ASSERT(max_barriers >= 1 && max_eis >= 1,
                "locking barrier table needs capacity");
}

LockBarrierTable::Barrier *
LockBarrierTable::find(Addr addr)
{
    const std::size_t *slot = slotIndex.find(addr);
    return slot ? &barriers[*slot] : nullptr;
}

void
LockBarrierTable::eraseSlot(std::size_t slot)
{
    slotIndex.erase(barriers[slot].addr);
    if (slot + 1 != barriers.size()) {
        barriers[slot] = std::move(barriers.back());
        slotIndex[barriers[slot].addr] = slot;
    }
    barriers.pop_back();
}

void
LockBarrierTable::recomputeNextExpiry()
{
    nextExpiry = CYCLE_NEVER;
    for (const auto &b : barriers)
        if (b.eis.empty())
            nextExpiry = std::min(nextExpiry, b.idleSince + ttl);
}

bool
LockBarrierTable::hasBarrier(Addr addr, Cycle now)
{
    expire(now);
    return find(addr) != nullptr;
}

bool
LockBarrierTable::createBarrier(Addr addr, Cycle now)
{
    expire(now);
    if (find(addr))
        return true;
    if (barriers.size() >= barrierCapacity) {
        ++stats.counter("barrier_table_full");
        return false;
    }
    Barrier b;
    b.addr = addr;
    b.idleSince = now;
    slotIndex[addr] = barriers.size();
    barriers.push_back(std::move(b));
    nextExpiry = std::min(nextExpiry, now + ttl);
    ++stats.counter("barriers_created");
    return true;
}

bool
LockBarrierTable::addEi(Addr addr, CoreId core, Cycle now)
{
    Barrier *b = find(addr);
    if (!b)
        return false;
    if (b->eis.size() >= eiCapacity) {
        ++stats.counter("ei_list_full");
        return false;
    }
    // One live EI per core per barrier: a core has at most one GetX in
    // flight, so a duplicate means a stale entry -- refuse.
    for (const auto &e : b->eis)
        if (e.core == core)
            return false;
    EiEntry e;
    e.core = core;
    e.phase = EiPhase::GetXFwd; // Inv generated + GetX forwarded at ST
    e.openedAt = now;
    b->eis.push_back(e);
    ++stats.counter("eis_opened");
    return true;
}

bool
LockBarrierTable::completeEi(Addr addr, CoreId core, Cycle now)
{
    Barrier *b = find(addr);
    if (!b)
        return false;
    auto it = std::find_if(b->eis.begin(), b->eis.end(),
                           [core](const EiEntry &e) {
                               return e.core == core;
                           });
    if (it == b->eis.end())
        return false;
    stats.sample("ei_lifetime").add(static_cast<double>(now - it->openedAt));
    b->eis.erase(it);
    ++stats.counter("eis_completed");
    if (b->eis.empty()) {
        b->idleSince = now; // TTL countdown restarts from full value
        nextExpiry = std::min(nextExpiry, now + ttl);
    }
    return true;
}

void
LockBarrierTable::expire(Cycle now)
{
    if (now < nextExpiry)
        return; // no idle barrier can have timed out yet
    for (std::size_t i = 0; i < barriers.size();) {
        if (barriers[i].eis.empty() &&
            now >= barriers[i].idleSince + ttl) {
            // The declarative FSM only permits TTL expiry from the
            // idle state (the countdown pauses while EIs are open);
            // require() panics if the table ever disagrees.
            const ProtoTransition &tr =
                bigRouterProtocolTable().require(
                    static_cast<int>(BrState::BarrierIdle),
                    static_cast<int>(BrEvent::TtlExpire));
            INPG_ASSERT(static_cast<BrAction>(tr.action) ==
                            BrAction::ExpireBarrier,
                        "barrier FSM: (BarrierIdle, TtlExpire) must "
                        "map to ExpireBarrier");
            ++stats.counter("barriers_expired");
            eraseSlot(i); // swap-erase: re-examine the moved-in slot
        } else {
            ++i;
        }
    }
    recomputeNextExpiry();
}

std::size_t
LockBarrierTable::numEis(Addr addr) const
{
    const std::size_t *slot = slotIndex.find(addr);
    return slot ? barriers[*slot].eis.size() : 0;
}

const char *
eiPhaseName(EiPhase p)
{
    switch (p) {
      case EiPhase::InvGenerated:
        return "inv-generated";
      case EiPhase::GetXFwd:
        return "getx-fwd";
      case EiPhase::InvAckRecv:
        return "invack-recv";
      case EiPhase::AckFwd:
        return "ack-fwd";
    }
    return "?";
}

JsonValue
LockBarrierTable::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::array();
    for (const Barrier &b : barriers) {
        JsonValue bj = JsonValue::object();
        bj["addr"] = static_cast<std::uint64_t>(b.addr);
        if (b.eis.empty()) {
            bj["idle_for"] =
                static_cast<std::uint64_t>(now - b.idleSince);
        }
        JsonValue eis = JsonValue::array();
        for (const EiEntry &ei : b.eis) {
            JsonValue ej = JsonValue::object();
            ej["core"] = static_cast<long long>(ei.core);
            ej["phase"] = eiPhaseName(ei.phase);
            ej["age"] = static_cast<std::uint64_t>(now - ei.openedAt);
            eis.push(std::move(ej));
        }
        bj["eis"] = std::move(eis);
        out.push(std::move(bj));
    }
    return out;
}

} // namespace inpg
