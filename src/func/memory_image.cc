#include "func/memory_image.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "prog/program.hh"

namespace svw {

MemoryImage::Page *
MemoryImage::findPage(Addr pageNum) const
{
    if (pageNum == lastPageNum)
        return lastPage;
    const PtabEntry &e = ptab[pageNum & (ptabEntries - 1)];
    if (e.pageNum == pageNum) {
        lastPageNum = pageNum;
        lastPage = e.page;
        return e.page;
    }
    auto it = pages.find(pageNum);
    if (it == pages.end())
        return nullptr;  // absence is not cached: a write may create it
    Page *p = it->second.get();
    cachePage(pageNum, p);
    return p;
}

MemoryImage::Page &
MemoryImage::getPage(Addr pageNum)
{
    if (Page *p = findPage(pageNum))
        return *p;
    auto &slot = pages[pageNum];
    slot = std::make_unique<Page>();
    slot->fill(0);
    cachePage(pageNum, slot.get());
    return *slot;
}

std::uint64_t
MemoryImage::read(Addr addr, unsigned size) const
{
    svw_assert(size == 1 || size == 2 || size == 4 || size == 8,
               "bad access size ", size);
    const std::uint64_t off = addr % pageBytes;
    if (off + size <= pageBytes) {
        // Single-page fast path (virtually all simulator accesses).
        std::uint64_t v = 0;
        if (const Page *p = findPage(addr / pageBytes))
            std::memcpy(&v, p->data() + off, size);
        return v;
    }
    std::uint8_t buf[8] = {0};
    readBytes(addr, buf, size);
    std::uint64_t v = 0;
    std::memcpy(&v, buf, 8);
    return v;
}

void
MemoryImage::write(Addr addr, unsigned size, std::uint64_t value)
{
    svw_assert(size == 1 || size == 2 || size == 4 || size == 8,
               "bad access size ", size);
    const std::uint64_t off = addr % pageBytes;
    if (off + size <= pageBytes) {
        std::memcpy(getPage(addr / pageBytes).data() + off, &value, size);
        return;
    }
    std::uint8_t buf[8];
    std::memcpy(buf, &value, 8);
    writeBytes(addr, buf, size);
}

void
MemoryImage::readBytes(Addr addr, std::uint8_t *buf, std::uint64_t len) const
{
    while (len > 0) {
        const std::uint64_t off = addr % pageBytes;
        const std::uint64_t chunk = std::min<std::uint64_t>(len,
                                                            pageBytes - off);
        if (const Page *p = findPage(addr / pageBytes))
            std::memcpy(buf, p->data() + off, chunk);
        else
            std::memset(buf, 0, chunk);
        buf += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
MemoryImage::writeBytes(Addr addr, const std::uint8_t *buf, std::uint64_t len)
{
    while (len > 0) {
        const std::uint64_t off = addr % pageBytes;
        const std::uint64_t chunk = std::min<std::uint64_t>(len,
                                                            pageBytes - off);
        Page &p = getPage(addr / pageBytes);
        std::memcpy(p.data() + off, buf, chunk);
        buf += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
MemoryImage::loadProgram(const Program &prog)
{
    for (const auto &seg : prog.segments())
        writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
}

bool
MemoryImage::identicalTo(const MemoryImage &other) const
{
    auto covered = [](const MemoryImage &a, const MemoryImage &b) {
        static const Page zeroPage = [] { Page p; p.fill(0); return p; }();
        for (const auto &[pn, page] : a.pages) {
            auto it = b.pages.find(pn);
            const Page &rhs = it == b.pages.end() ? zeroPage : *it->second;
            if (std::memcmp(page->data(), rhs.data(), pageBytes) != 0)
                return false;
        }
        return true;
    };
    return covered(*this, other) && covered(other, *this);
}

} // namespace svw
