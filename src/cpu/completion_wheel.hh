/**
 * @file
 * Timing wheel: the core's "result arrives at cycle C" queue and the
 * issue queue's "sleeper wakes at cycle C" queue.
 *
 * A bucketed timing wheel replaces the old std::multimap<Cycle, seq>:
 * scheduling and per-cycle drain are O(1) plus the events themselves,
 * with no node allocation on the hot path. The wheel is sized past the
 * worst common scheduling delta (for completions: memory access +
 * buses + extra load latency); the rare event beyond the horizon goes
 * to a sorted overflow map.
 *
 * Ordering matches the multimap exactly. Events for the same cycle fire
 * in insertion order: an overflow event due at cycle C was necessarily
 * inserted before any in-wheel event due at C (its insertion cycle
 * precedes C - horizon), so draining overflow first preserves global
 * insertion order; std::multimap keeps equal keys in insertion order.
 *
 * The drain contract: the owner calls drain(now) for every cycle that
 * has an event due, in increasing order of `now`. Core::tick drains
 * every cycle it runs; dead-cycle skipping (Core::run) jumps only to a
 * cycle no later than nextDue(), so no due bucket is ever passed over.
 * Events scheduled for the current or a past cycle fire on the next
 * drain (the multimap behaved the same way: completeStage had already
 * run by the time issue inserted them).
 *
 * An occupancy bit per bucket lets nextDue() find the earliest pending
 * event without walking empty buckets.
 */

#ifndef SVW_CPU_COMPLETION_WHEEL_HH
#define SVW_CPU_COMPLETION_WHEEL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace svw {

/** Bucketed event wheel of @p T payloads keyed by due cycle. */
template <typename T>
class CompletionWheel
{
  public:
    /** @p horizon must be a power of two and exceed the largest common
     * scheduling delta (larger deltas still work via overflow). */
    explicit CompletionWheel(std::size_t horizon = 1024)
        : mask(horizon - 1), buckets(horizon),
          occupied((horizon + 63) / 64, 0)
    {
        svw_assert(horizon > 1 && (horizon & (horizon - 1)) == 0,
                   "wheel horizon must be a power of two");
    }

    /** Schedule @p item to fire at cycle @p due (clamped to now + 1: an
     * already-due event fires on the next drain, like the multimap). */
    void schedule(Cycle now, Cycle due, const T &item)
    {
        if (due <= now)
            due = now + 1;
        if (due - now <= mask) {
            const std::size_t b = due & mask;
            buckets[b].push_back(item);
            occupied[b >> 6] |= std::uint64_t(1) << (b & 63);
        } else {
            overflow.emplace(due, item);
        }
        ++pending;
    }

    bool empty() const { return pending == 0; }
    std::size_t size() const { return pending; }

    /**
     * Earliest due cycle of any pending event, or ~Cycle(0) when none.
     * @p now is the next cycle to be drained: every pending in-wheel
     * event is due within [now, now + horizon), so its bucket's offset
     * from `now & mask` is its distance in cycles.
     */
    Cycle nextDue(Cycle now) const
    {
        Cycle due = overflow.empty() ? ~Cycle(0) : overflow.begin()->first;
        const std::size_t start = now & mask;
        const std::size_t words = occupied.size();
        std::size_t wi = start >> 6;
        std::uint64_t w = occupied[wi] & (~std::uint64_t(0) << (start & 63));
        // Walk the words once around from the start bucket; the start
        // word is revisited last for the buckets before `start`.
        for (std::size_t k = 0; k <= words; ++k) {
            if (w) {
                const std::size_t b = (wi << 6) + std::countr_zero(w);
                const Cycle c = now + ((b - start) & mask);
                return c < due ? c : due;
            }
            wi = wi + 1 == words ? 0 : wi + 1;
            w = occupied[wi];
            if (k + 1 == words)
                w &= (std::uint64_t(1) << (start & 63)) - 1;
        }
        return due;
    }

    /**
     * Fire every event due at (or before) @p now, in insertion order,
     * invoking @p fn(item). @p fn may schedule new events (they are due
     * strictly after @p now) but must not call drain reentrantly.
     */
    template <typename F>
    void drain(Cycle now, F &&fn)
    {
        while (!overflow.empty() && overflow.begin()->first <= now) {
            const T item = overflow.begin()->second;
            overflow.erase(overflow.begin());
            --pending;
            fn(item);
        }
        auto &bucket = buckets[now & mask];
        if (bucket.empty())
            return;
        // fn may schedule, but never into this slot (deltas are clamped
        // to [1, mask]), so the bucket is stable while it is walked and
        // keeps its own capacity for the next lap.
        pending -= bucket.size();
        for (const T &item : bucket)
            fn(item);
        bucket.clear();
        const std::size_t b = now & mask;
        occupied[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
    }

  private:
    std::size_t mask;
    std::vector<std::vector<T>> buckets;
    std::vector<std::uint64_t> occupied;  ///< one bit per non-empty bucket
    std::multimap<Cycle, T> overflow;
    std::size_t pending = 0;
};

} // namespace svw

#endif // SVW_CPU_COMPLETION_WHEEL_HH
