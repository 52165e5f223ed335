/**
 * @file
 * Integration Table (IT) for register-integration-based redundant load
 * elimination (Petric, Bracy & Roth, MICRO-35; paper section 2.4).
 *
 * Entries describe an operation over physical register inputs and name
 * the physical register holding its result. A later instruction with an
 * identical signature is redundant: rename points its output at the
 * existing register and the instruction never executes. Loads eliminated
 * this way must re-execute before commit (false eliminations happen when
 * an unaccounted-for store intervenes); per section 3.4 each entry
 * carries the SSN marking the start of the consumer's vulnerability
 * window.
 *
 * The table takes a reference on each entry's output register so squash
 * reuse works: a squashed instruction's result survives, pinned by the
 * IT, and its re-fetched incarnation can integrate it. Generation
 * numbers on physical registers invalidate entries lazily when a
 * register is freed and re-allocated.
 */

#ifndef SVW_RLE_INTEGRATION_TABLE_HH
#define SVW_RLE_INTEGRATION_TABLE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "cpu/rename.hh"
#include "isa/inst.hh"
#include "stats/stats.hh"

namespace svw {

/** Operation signature used for matching. */
struct ItKey
{
    Opcode op = Opcode::Nop;
    PhysRegIndex src1 = invalidPhysReg;
    std::uint64_t src1Gen = 0;
    PhysRegIndex src2 = invalidPhysReg;  ///< invalid if unused
    std::uint64_t src2Gen = 0;
    std::int64_t imm = 0;
};

/** One IT entry. */
struct ItEntry
{
    bool valid = false;
    ItKey key{};
    PhysRegIndex dst = invalidPhysReg;
    std::uint64_t dstGen = 0;
    SSN ssn = 0;            ///< vulnerability-window start for consumers
    bool fromSquash = false;///< creator was squashed (squash reuse)
    bool bypass = false;    ///< created by a store (memory bypassing)
    InstSeqNum creatorSeq = 0;
    std::uint64_t lru = 0;
    // Intrusive LRU list links (indices into the table; -1 = none).
    // Valid entries are linked oldest-touch first; the head is pressure
    // eviction's last-resort victim.
    int lruPrev = -1;
    int lruNext = -1;
    // Second intrusive LRU list, per release category (load/bypass
    // entries vs ALU entries), maintained in lockstep with the global
    // list. releaseOnePinned's category-priority walk runs over the
    // short per-category list instead of the whole LRU chain; the
    // classification is cached here so the walk never re-decodes
    // opcodes.
    bool loadKey = false;   ///< key.op is a load opcode
    int catPrev = -1;
    int catNext = -1;
};

/** Set-associative integration table. */
class IntegrationTable
{
  public:
    /**
     * @param maxPinned budget of live entries (each pins one physical
     * register reference); inserting beyond it evicts LRU entries first,
     * keeping the rename free list healthy on small register files.
     */
    IntegrationTable(unsigned entries, unsigned assoc, unsigned maxPinned,
                     stats::StatRegistry &reg);

    /**
     * Find a live entry matching @p key. Checks input and output
     * register generations; a squashed-creator entry whose value was
     * never produced is treated as dead.
     */
    ItEntry *lookup(const ItKey &key, const RenameState &rename);

    /**
     * Insert (or overwrite a same-key entry). Takes a reference on
     * @p dst via @p rename; releases the reference of any evicted entry.
     */
    void insert(const ItKey &key, PhysRegIndex dst, SSN ssn,
                InstSeqNum creatorSeq, RenameState &rename,
                bool bypass = false);

    /** Squash: entries created by squashed instructions become
     * squash-reuse candidates (or die if squash reuse is disabled). */
    void onSquash(InstSeqNum keepSeq, bool squashReuseEnabled,
                  RenameState &rename);

    /**
     * Kill the entry matching @p key (a false elimination was detected
     * by re-execution; the refetched load must not re-integrate it).
     */
    void invalidateKey(const ItKey &key, RenameState &rename);

    /**
     * Free-list pressure valve: invalidate one entry whose output
     * register is pinned only by the IT. @return true if one was freed.
     */
    bool releaseOnePinned(RenameState &rename);

    /** Flash clear (SSN wrap drain under RLE, section 3.6). */
    void clear(RenameState &rename);

    std::size_t liveEntries() const;

  public:
    stats::Scalar hits;
    stats::Scalar insertions;
    stats::Scalar pressureReleases;

  private:
    unsigned sets;
    unsigned assoc;
    unsigned maxPinned;
    unsigned livePins = 0;
    std::vector<ItEntry> table;
    std::uint64_t lruCounter = 0;
    int lruHead = -1;  ///< oldest-touched valid entry
    int lruTail = -1;  ///< newest-touched valid entry
    // Per-category LRU lists (same order as the global list, filtered
    // by ItEntry::loadKey).
    int aluHead = -1, aluTail = -1;
    int loadHead = -1, loadTail = -1;

    unsigned indexOf(const ItKey &key) const;
    static bool keyEq(const ItKey &a, const ItKey &b);
    void invalidate(ItEntry &e, RenameState &rename);

    int entryIndex(const ItEntry &e) const
    {
        return static_cast<int>(&e - table.data());
    }
    void lruUnlink(ItEntry &e);
    void lruAppend(ItEntry &e);
    void catUnlink(ItEntry &e);
    void catAppend(ItEntry &e);
    void lruTouch(ItEntry &e)
    {
        lruUnlink(e);
        lruAppend(e);
    }
};

} // namespace svw

#endif // SVW_RLE_INTEGRATION_TABLE_HH
