#include "rle/integration_table.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace svw {

IntegrationTable::IntegrationTable(unsigned entries, unsigned a,
                                   unsigned maxPinnedRegs,
                                   stats::StatRegistry &reg)
    : hits(reg, "it.hits", "integration table hits (eliminations)"),
      insertions(reg, "it.insertions", "integration table entry creations"),
      pressureReleases(reg, "it.pressureReleases",
                       "entries dropped to relieve free-list pressure"),
      assoc(a),
      maxPinned(maxPinnedRegs)
{
    svw_assert(entries % a == 0, "IT geometry");
    sets = entries / a;
    svw_assert(isPowerOf2(sets), "IT sets must be a power of two");
    table.resize(entries);
}

unsigned
IntegrationTable::indexOf(const ItKey &key) const
{
    std::uint64_t h = static_cast<std::uint64_t>(key.op) * 0x9e3779b9u;
    h ^= key.src1 * 0x85ebca6bull;
    h ^= static_cast<std::uint64_t>(key.imm) * 0xc2b2ae35ull;
    h ^= h >> 16;
    return static_cast<unsigned>(h & (sets - 1));
}

bool
IntegrationTable::keyEq(const ItKey &a, const ItKey &b)
{
    return a.op == b.op && a.src1 == b.src1 && a.src1Gen == b.src1Gen &&
        a.src2 == b.src2 && a.src2Gen == b.src2Gen && a.imm == b.imm;
}

ItEntry *
IntegrationTable::lookup(const ItKey &key, const RenameState &rename)
{
    const unsigned set = indexOf(key);
    for (unsigned w = 0; w < assoc; ++w) {
        ItEntry &e = table[set * assoc + w];
        if (!e.valid || !keyEq(e.key, key))
            continue;
        const PhysRegFile &f = rename.regs();
        // Stale if any involved register was freed and re-allocated.
        if (f.generation(e.dst) != e.dstGen ||
            (e.key.src1 != invalidPhysReg &&
             f.generation(e.key.src1) != e.key.src1Gen) ||
            (e.key.src2 != invalidPhysReg &&
             f.generation(e.key.src2) != e.key.src2Gen)) {
            continue;
        }
        // A squashed creator that never produced its value leaves the
        // output register permanently not-ready; such entries are dead.
        if (e.fromSquash && f.readyAt(e.dst) == notReady)
            continue;
        e.lru = ++lruCounter;
        lruTouch(e);
        ++hits;
        return &e;
    }
    return nullptr;
}

void
IntegrationTable::lruUnlink(ItEntry &e)
{
    const int i = entryIndex(e);
    if (e.lruPrev != -1)
        table[e.lruPrev].lruNext = e.lruNext;
    else if (lruHead == i)
        lruHead = e.lruNext;
    if (e.lruNext != -1)
        table[e.lruNext].lruPrev = e.lruPrev;
    else if (lruTail == i)
        lruTail = e.lruPrev;
    e.lruPrev = -1;
    e.lruNext = -1;
    catUnlink(e);
}

void
IntegrationTable::lruAppend(ItEntry &e)
{
    const int i = entryIndex(e);
    e.lruPrev = lruTail;
    e.lruNext = -1;
    if (lruTail != -1)
        table[lruTail].lruNext = i;
    else
        lruHead = i;
    lruTail = i;
    catAppend(e);
}

void
IntegrationTable::catUnlink(ItEntry &e)
{
    const int i = entryIndex(e);
    int &head = e.loadKey ? loadHead : aluHead;
    int &tail = e.loadKey ? loadTail : aluTail;
    if (e.catPrev != -1)
        table[e.catPrev].catNext = e.catNext;
    else if (head == i)
        head = e.catNext;
    if (e.catNext != -1)
        table[e.catNext].catPrev = e.catPrev;
    else if (tail == i)
        tail = e.catPrev;
    e.catPrev = -1;
    e.catNext = -1;
}

void
IntegrationTable::catAppend(ItEntry &e)
{
    const int i = entryIndex(e);
    int &head = e.loadKey ? loadHead : aluHead;
    int &tail = e.loadKey ? loadTail : aluTail;
    e.catPrev = tail;
    e.catNext = -1;
    if (tail != -1)
        table[tail].catNext = i;
    else
        head = i;
    tail = i;
}

void
IntegrationTable::insert(const ItKey &key, PhysRegIndex dst, SSN ssn,
                         InstSeqNum creatorSeq, RenameState &rename,
                         bool bypass)
{
    ++insertions;
    // Respect the pin budget: evict before inserting, not after, so the
    // rename stage never sees the free list dip below its slack.
    while (livePins >= maxPinned) {
        if (!releaseOnePinned(rename))
            break;
    }
    const unsigned set = indexOf(key);
    ItEntry *victim = nullptr;
    for (unsigned w = 0; w < assoc; ++w) {
        ItEntry &e = table[set * assoc + w];
        if (e.valid && keyEq(e.key, key)) {
            victim = &e;  // overwrite duplicate key
            break;
        }
        if (!victim || !e.valid ||
            (victim->valid && e.lru < victim->lru)) {
            victim = &e;
        }
    }
    if (victim->valid)
        invalidate(*victim, rename);

    victim->valid = true;
    victim->key = key;
    victim->loadKey = key.op == Opcode::Ld1 || key.op == Opcode::Ld2 ||
                      key.op == Opcode::Ld4 || key.op == Opcode::Ld8;
    victim->dst = dst;
    victim->dstGen = rename.regs().generation(dst);
    victim->ssn = ssn;
    victim->fromSquash = false;
    victim->bypass = bypass;
    victim->creatorSeq = creatorSeq;
    victim->lru = ++lruCounter;
    lruAppend(*victim);
    rename.addRef(dst);
    ++livePins;
}

void
IntegrationTable::invalidate(ItEntry &e, RenameState &rename)
{
    svw_assert(e.valid, "invalidate of empty IT entry");
    // Release the pin only if the register was not recycled under us.
    if (rename.regs().generation(e.dst) == e.dstGen)
        rename.deref(e.dst);
    e.valid = false;
    lruUnlink(e);
    svw_assert(livePins > 0, "IT pin underflow");
    --livePins;
}

void
IntegrationTable::invalidateKey(const ItKey &key, RenameState &rename)
{
    const unsigned set = indexOf(key);
    for (unsigned w = 0; w < assoc; ++w) {
        ItEntry &e = table[set * assoc + w];
        if (e.valid && keyEq(e.key, key))
            invalidate(e, rename);
    }
}

void
IntegrationTable::onSquash(InstSeqNum keepSeq, bool squashReuseEnabled,
                           RenameState &rename)
{
    for (ItEntry &e : table) {
        if (!e.valid || e.creatorSeq <= keepSeq)
            continue;
        if (squashReuseEnabled)
            e.fromSquash = true;
        else
            invalidate(e, rename);
    }
}

bool
IntegrationTable::releaseOnePinned(RenameState &rename)
{
    // Eviction priority: (1) LRU ALU entry whose register the IT alone
    // keeps alive, (2) LRU solo-pinned load/bypass entry, (3) LRU any.
    // Load and bypass entries are the ones that eliminate re-executable
    // loads, so they are worth keeping; ALU entries mostly serve squash
    // reuse and are cheap to regenerate.
    //
    // Each category's own LRU list preserves the global LRU order
    // filtered to that category, so the first solo-pinned entry of the
    // ALU list is the least recently used solo-pinned ALU entry
    // (likewise for loads). The walk steps only over its own category:
    // the table is mostly load entries, which a walk of the global list
    // had to skip to reach the first ALU victim (measured at 37-41% of
    // host time on RLE cells before the category lists).
    const PhysRegFile &f = rename.regs();
    ItEntry *victim = nullptr;
    for (int i = aluHead; i != -1; i = table[i].catNext) {
        if (f.refCount(table[i].dst) == 1) {
            victim = &table[i];
            break;
        }
    }
    if (!victim) {
        for (int i = loadHead; i != -1; i = table[i].catNext) {
            if (f.refCount(table[i].dst) == 1) {
                victim = &table[i];
                break;
            }
        }
    }
    if (!victim && lruHead != -1)
        victim = &table[lruHead];
    if (!victim)
        return false;
    ++pressureReleases;
    invalidate(*victim, rename);
    return true;
}

void
IntegrationTable::clear(RenameState &rename)
{
    for (ItEntry &e : table)
        if (e.valid)
            invalidate(e, rename);
}

std::size_t
IntegrationTable::liveEntries() const
{
    std::size_t n = 0;
    for (const ItEntry &e : table)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace svw
