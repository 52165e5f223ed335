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
 * The drain contract assumes the owner calls drain(now) every cycle with
 * `now` advancing by one — exactly what Core::tick does. Events
 * scheduled for the current or a past cycle fire on the next drain (the
 * multimap behaved the same way: completeStage had already run by the
 * time issue inserted them).
 */

#ifndef SVW_CPU_COMPLETION_WHEEL_HH
#define SVW_CPU_COMPLETION_WHEEL_HH

#include <cstddef>
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
        : mask(horizon - 1), buckets(horizon)
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
        if (due - now <= mask)
            buckets[due & mask].push_back(item);
        else
            overflow.emplace(due, item);
        ++pending;
    }

    bool empty() const { return pending == 0; }
    std::size_t size() const { return pending; }

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
    }

  private:
    std::size_t mask;
    std::vector<std::vector<T>> buckets;
    std::multimap<Cycle, T> overflow;
    std::size_t pending = 0;
};

} // namespace svw

#endif // SVW_CPU_COMPLETION_WHEEL_HH
