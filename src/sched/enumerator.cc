#include "sched/enumerator.h"

#include "common/logging.h"

namespace crophe::sched {

using graph::OpId;

namespace {

constexpr u32 kInitialSlotBits = 6;

}  // namespace

GroupMemo::GroupMemo()
    : slots_(std::size_t{1} << kInitialSlotBits), shift_(64 - kInitialSlotBits)
{
}

std::size_t
GroupMemo::probe(u64 key) const
{
    // Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> shift_;
    while (slots_[i].entry != nullptr && slots_[i].key != key)
        i = (i + 1) & mask;
    return i;
}

void
GroupMemo::grow()
{
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot &s : old)
        if (s.entry != nullptr)
            slots_[probe(s.key)] = s;
}

const GroupMemo::Entry *
GroupMemo::lookup(u64 key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[probe(key)].entry;
}

std::pair<const GroupMemo::Entry *, bool>
GroupMemo::insert(u64 key, Entry value)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t i = probe(key);
    if (slots_[i].entry != nullptr)
        return {slots_[i].entry, false};
    entries_.push_back(std::move(value));
    slots_[i] = {key, &entries_.back()};
    if (2 * entries_.size() > slots_.size())
        grow();
    return {&entries_.back(), true};
}

u64
GroupMemo::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

GroupEnumerator::GroupEnumerator(const graph::Graph &g,
                                 const hw::HwConfig &cfg, bool mad,
                                 u32 max_ops, GroupMemo *shared)
    : g_(&g), cfg_(&cfg), mad_(mad), maxOps_(max_ops),
      topo_(g.topoOrderAuxAffinity()), pos_(g.size()),
      auxHashes_(g.auxKeyHashes()), memo_(shared ? shared : &ownMemo_),
      byWindow_(topo_.size() * (static_cast<std::size_t>(max_ops) + 1))
{
    CROPHE_ASSERT(maxOps_ >= 1, "maxOps must be positive");
    for (u32 i = 0; i < topo_.size(); ++i)
        pos_[topo_[i]] = i;
    u64 h = hw::configDigest(cfg);
    h ^= (mad ? 0x9e3779b97f4a7c15ull : 0) + (h << 6) + (h >> 2);
    h *= 1099511628211ull;
    cfgKey_ = h;
}

u64
GroupEnumerator::windowKey(u32 begin, u32 len) const
{
    // Structural hash extended with everything analyzeSpatialGroup reads
    // from OUTSIDE the window: each op's external producers contribute
    // their output volume and Input-kind flag (they are charged to
    // SRAM/DRAM traffic), and the hardware/MAD context is folded in so one
    // store can serve many configs. Without the extension, two windows
    // with equal internal structure but different upstream volumes would
    // collide — and a shared memo would then return whichever analysis was
    // inserted first, making results depend on thread timing.
    const OpId *ops = topo_.data() + begin;
    u64 h = g_->windowHash(ops, len, pos_, begin, auxHashes_);
    auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 1099511628211ull;
    };
    for (u32 i = 0; i < len; ++i) {
        for (OpId p : g_->producers(ops[i])) {
            if (pos_[p] - begin < len)
                continue;  // inside the window
            const graph::Op &prod = g_->op(p);
            mix(prod.outputWords);
            mix(prod.kind == graph::OpKind::Input ? 1 : 0);
        }
    }
    mix(cfgKey_);
    return h;
}

const SpatialGroup *
GroupEnumerator::window(u32 begin, u32 len)
{
    if (len == 0 || len > maxOps_ || begin + len > topo_.size())
        return nullptr;

    const GroupMemo::Entry *&slot =
        byWindow_[static_cast<std::size_t>(begin) * (maxOps_ + 1) + len];
    if (slot == nullptr) {
        u64 h = windowKey(begin, len);
        slot = memo_->lookup(h);
        if (slot != nullptr) {
            ++hits_;
        } else {
            std::vector<OpId> ops(topo_.begin() + begin,
                                  topo_.begin() + begin + len);
            GroupMemo::Entry entry;
            SpatialGroup group;
            if (analyzeSpatialGroup(*g_, ops, *cfg_, mad_, group)) {
                // Canonical form: op ids become window positions. The
                // entry lives as long as the memo, so drop spare capacity.
                for (auto &a : group.allocs)
                    a.op = pos_[a.op] - begin;
                for (auto &e : group.internalEdges) {
                    e.from = pos_[e.from] - begin;
                    e.to = pos_[e.to] - begin;
                }
                group.allocs.shrink_to_fit();
                group.internalEdges.shrink_to_fit();
                group.auxNeeds.shrink_to_fit();
                entry = std::move(group);
            }
            auto [stored, inserted] = memo_->insert(h, std::move(entry));
            slot = stored;
            // Losing the insert race counts as a hit: the winner's entry is
            // identical (the memo value is a pure function of the key), so
            // analyzed totals stay equal to the number of unique keys no
            // matter how threads interleave.
            if (inserted)
                ++analyzed_;
            else
                ++hits_;
        }
    }
    return slot->has_value() ? &**slot : nullptr;
}

SpatialGroup
GroupEnumerator::materialize(u32 begin, u32 len)
{
    const SpatialGroup *canonical = window(begin, len);
    CROPHE_ASSERT(canonical != nullptr, "materializing an infeasible window");
    SpatialGroup out = *canonical;
    for (auto &a : out.allocs)
        a.op = topo_[begin + a.op];
    for (auto &e : out.internalEdges) {
        e.from = topo_[begin + e.from];
        e.to = topo_[begin + e.to];
    }
    return out;
}

}  // namespace crophe::sched
