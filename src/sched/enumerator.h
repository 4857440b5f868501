#ifndef CROPHE_SCHED_ENUMERATOR_H_
#define CROPHE_SCHED_ENUMERATOR_H_

/**
 * @file
 * Bottom-up spatial-group candidate enumeration (Section V-D).
 *
 * Candidates are contiguous windows of the topological order, up to the
 * configured maximum size. Analysis results are memoized by structural
 * hash so that the many isomorphic subgraphs of FHE workloads (every
 * KeySwitch looks alike) are each analyzed only once — the paper's
 * redundant-subgraph merging.
 *
 * The memo can be SHARED across enumerators (the nttDecomp / rotation /
 * cluster sweeps all schedule near-identical graphs): GroupMemo is a
 * thread-safe store keyed by a context-extended structural hash. The
 * extension folds in each window op's external-producer volumes (the only
 * out-of-window data analyzeSpatialGroup reads) plus the hardware digest
 * and MAD flag, making the memo value a pure function of its key — so
 * concurrent insert races are benign and sharing is deterministic.
 */

#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "sched/group.h"

namespace crophe::sched {

/**
 * Thread-safe canonical-group store shared across enumerators.
 * Values are canonical (position-indexed) analyses; nullopt = infeasible.
 * Entries are immutable once inserted and keep their address for the
 * memo's lifetime (a deque never moves its elements on push_back), so
 * readers hold pointers to them instead of copies. A flat open-addressing
 * index over those addresses keeps a lookup — the search's hottest call —
 * to about one cache miss.
 */
class GroupMemo
{
  public:
    using Entry = std::optional<SpatialGroup>;

    GroupMemo();
    GroupMemo(const GroupMemo &) = delete;
    GroupMemo &operator=(const GroupMemo &) = delete;

    /** The stored entry for @p key; nullptr when absent. */
    const Entry *lookup(u64 key) const;

    /**
     * Insert-if-absent. Returns the stored entry and true when this call
     * created it (an "analyzed" event); false when an equal entry already
     * existed — the caller raced another analysis of the same key, uses
     * the winner's entry and is counted as a memo hit, keeping
     * analyzed/hit totals deterministic for any thread count (analyzed
     * sums to the number of unique keys).
     */
    std::pair<const Entry *, bool> insert(u64 key, Entry value);

    /** Unique keys stored. */
    u64 size() const;

  private:
    /** Index slot; a null entry marks it empty. */
    struct Slot
    {
        u64 key = 0;
        const Entry *entry = nullptr;
    };

    /** Index of @p key's slot, or of the empty slot it would take. */
    std::size_t probe(u64 key) const;
    /** Double the index. */
    void grow();

    mutable std::mutex mu_;
    std::deque<Entry> entries_;
    /** Linear probing; a power-of-two size, kept at most half full. */
    std::vector<Slot> slots_;
    u32 shift_;  ///< 64 - log2(slots_.size())
};

/** Memoizing candidate factory over one graph. */
class GroupEnumerator
{
  public:
    /**
     * @param shared memo to consult/populate; nullptr = private memo.
     */
    GroupEnumerator(const graph::Graph &g, const hw::HwConfig &cfg, bool mad,
                    u32 max_ops, GroupMemo *shared = nullptr);

    const graph::Graph &graph() const { return *g_; }
    const hw::HwConfig &config() const { return *cfg_; }
    const std::vector<graph::OpId> &topo() const { return topo_; }
    u32 maxOps() const { return maxOps_; }

    /**
     * Canonical analyzed group for topo window [begin, begin+len): its
     * allocs and internal edges name window positions, not op ids (the
     * cover search reads only the costs). nullptr when the window exceeds
     * the graph or is infeasible. The group lives in the memo.
     */
    const SpatialGroup *window(u32 begin, u32 len);

    /** The feasible window's group with its real op ids bound. */
    SpatialGroup materialize(u32 begin, u32 len);

    /** Unique subgraph analyses performed (memoization effectiveness). */
    u64 analyzedCount() const { return analyzed_; }
    u64 memoHits() const { return hits_; }

  private:
    u64 windowKey(u32 begin, u32 len) const;

    const graph::Graph *g_;
    const hw::HwConfig *cfg_;
    bool mad_;
    u32 maxOps_;
    std::vector<graph::OpId> topo_;
    std::vector<u32> pos_;         ///< op id -> index in topo_
    std::vector<u64> auxHashes_;   ///< graph::Graph::auxKeyHashes()
    u64 cfgKey_;  ///< configDigest ⊕ mad, folded into every memo key
    GroupMemo ownMemo_;
    GroupMemo *memo_;  ///< shared store, or &ownMemo_
    /** Memo entry per window, at begin*(maxOps+1)+len; nullptr = not yet
     *  asked. */
    std::vector<const GroupMemo::Entry *> byWindow_;
    u64 analyzed_ = 0;
    u64 hits_ = 0;
};

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_ENUMERATOR_H_
