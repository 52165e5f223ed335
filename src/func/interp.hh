/**
 * @file
 * In-order functional interpreter — the golden model.
 *
 * Every timing run in the test suite is cross-checked against this
 * interpreter: the out-of-order core (with any combination of load
 * optimizations and SVW filtering enabled) must retire the same dynamic
 * instruction stream and produce the same final architectural state.
 */

#ifndef SVW_FUNC_INTERP_HH
#define SVW_FUNC_INTERP_HH

#include <array>
#include <cstdint>

#include "func/memory_image.hh"
#include "isa/inst.hh"
#include "prog/program.hh"

namespace svw {

/** Dynamic execution counts gathered by the interpreter. */
struct InterpCounts
{
    std::uint64_t insts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t silentStores = 0;  ///< stores that wrote the existing value
};

/** Architected state snapshot (for golden-model comparison). */
struct ArchState
{
    std::array<std::uint64_t, numArchRegs> regs{};
    std::uint64_t pc = 0;
};

/**
 * Executes a Program to completion (Halt) or an instruction budget.
 */
class Interp
{
  public:
    explicit Interp(const Program &prog);

    /** Execute one instruction. @return false once halted. */
    bool step();

    /**
     * Run until Halt or until @p maxInsts more instructions execute.
     * @return true if the program halted.
     */
    bool run(std::uint64_t maxInsts);

    bool halted() const { return _halted; }

    std::uint64_t reg(RegIndex r) const { return regs[r]; }
    void setReg(RegIndex r, std::uint64_t v) { if (r != 0) regs[r] = v; }
    std::uint64_t pc() const { return _pc; }

    const MemoryImage &memory() const { return mem; }
    MemoryImage &memory() { return mem; }

    const InterpCounts &counts() const { return cnt; }

    ArchState archState() const;

  private:
    const Program &prog;
    MemoryImage mem;
    std::array<std::uint64_t, numArchRegs> regs{};
    std::uint64_t _pc;
    bool _halted = false;
    InterpCounts cnt;
};

} // namespace svw

#endif // SVW_FUNC_INTERP_HH
