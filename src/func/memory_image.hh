/**
 * @file
 * Sparse byte-addressable memory image.
 *
 * Used three ways in the reproduction: as the functional interpreter's
 * memory, as the timing simulator's committed ("cache") state, and as the
 * re-execution pipeline's in-order pre-commit view (committed state plus
 * the rex store buffer). Unwritten memory reads as zero.
 *
 * The interpreter, every committed-state load, and every re-execution
 * read hit this class, so page lookup is fronted by a single-entry
 * last-page cache plus a small direct-mapped page table; the backing
 * unordered_map is only consulted on a miss in both. Page storage is
 * unique_ptr, so cached raw Page pointers stay valid as the map grows.
 */

#ifndef SVW_FUNC_MEMORY_IMAGE_HH
#define SVW_FUNC_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace svw {

class Program;

/** Sparse paged memory; little-endian multi-byte accesses. */
class MemoryImage
{
  public:
    static constexpr unsigned pageBytes = 4096;

    /** Read @p size bytes (1/2/4/8) at @p addr, zero-extended. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes of @p value at @p addr. */
    void write(Addr addr, unsigned size, std::uint64_t value);

    void readBytes(Addr addr, std::uint8_t *buf, std::uint64_t len) const;
    void writeBytes(Addr addr, const std::uint8_t *buf, std::uint64_t len);

    /** Apply a program's initial data segments. */
    void loadProgram(const Program &prog);

    /** Number of pages ever written (footprint metric). */
    std::size_t pageCount() const { return pages.size(); }

    /**
     * Compare with @p other over the union of touched pages.
     * @return true if every byte matches (untouched pages read as zero).
     */
    bool identicalTo(const MemoryImage &other) const;

    /** Drop all contents. */
    void clear()
    {
        pages.clear();
        lastPageNum = badPage;
        lastPage = nullptr;
        ptab.fill(PtabEntry{});
    }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    static constexpr Addr badPage = ~Addr(0);
    static constexpr std::size_t ptabEntries = 64;  ///< direct-mapped

    struct PtabEntry
    {
        Addr pageNum = badPage;
        Page *page = nullptr;
    };

    /** Page lookup: last-page cache, then the direct-mapped table, then
     * the hash map (filling both caches on a hit). nullptr if absent. */
    Page *findPage(Addr pageNum) const;

    /** Like findPage but creates the page if absent. */
    Page &getPage(Addr pageNum);

    void cachePage(Addr pageNum, Page *p) const
    {
        lastPageNum = pageNum;
        lastPage = p;
        ptab[pageNum & (ptabEntries - 1)] = PtabEntry{pageNum, p};
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;

    // Lookup caches (logically const: they never change visible state).
    mutable Addr lastPageNum = badPage;
    mutable Page *lastPage = nullptr;
    mutable std::array<PtabEntry, ptabEntries> ptab{};
};

} // namespace svw

#endif // SVW_FUNC_MEMORY_IMAGE_HH
