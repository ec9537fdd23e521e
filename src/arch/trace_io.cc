#include "arch/trace_io.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/log.hh"

namespace unimem {

namespace {

/** Opcode <-> token mapping for the trace format. */
Opcode
opcodeFromName(const std::string& name, unsigned long long lineNo)
{
    for (int i = 0; i <= static_cast<int>(Opcode::Bar); ++i) {
        Opcode op = static_cast<Opcode>(i);
        if (name == opcodeName(op))
            return op;
    }
    fatal("trace: line %llu: unknown opcode '%s'", lineNo, name.c_str());
}

void
writeWarp(std::ostream& os, const KernelModel& kernel, const WarpCtx& ctx)
{
    os << "warp " << ctx.ctaId << " " << ctx.warpInCta << "\n";
    auto prog = kernel.warpProgram(ctx);
    std::vector<WarpInstr> buf;
    while (prog->fill(buf)) {
        for (const WarpInstr& in : buf) {
            os << "i " << opcodeName(in.op) << " " << in.dst;
            for (u8 s = 0; s < 3; ++s)
                os << " " << (s < in.numSrc ? in.src[s] : kInvalidReg);
            os << " " << std::hex << in.activeMask << std::dec << " "
               << static_cast<u32>(in.accessBytes) << "\n";
            if (isMemOp(in.op)) {
                os << "a" << std::hex;
                for (u32 lane = 0; lane < kWarpWidth; ++lane)
                    if (in.laneActive(lane))
                        os << " " << in.addr[lane];
                os << std::dec << "\n";
            }
        }
        buf.clear();
    }
    os << "end\n";
}

} // namespace

void
writeTrace(const KernelModel& kernel, std::ostream& os, u64 seed)
{
    const KernelParams& kp = kernel.params();
    kp.validate();
    os << "unimem-trace " << kTraceFormatVersion << "\n";
    os << "kernel " << kp.name << " regs " << kp.regsPerThread
       << " shared " << kp.sharedBytesPerCta << " cta " << kp.ctaThreads
       << " grid " << kp.gridCtas << "\n";
    for (u32 cta = 0; cta < kp.gridCtas; ++cta) {
        for (u32 w = 0; w < kp.warpsPerCta(); ++w) {
            WarpCtx ctx;
            ctx.ctaId = cta;
            ctx.warpInCta = w;
            ctx.warpsPerCta = kp.warpsPerCta();
            ctx.threadsPerCta = kp.ctaThreads;
            ctx.seed = seed;
            writeWarp(os, kernel, ctx);
        }
    }
}

TraceFileKernel::TraceFileKernel(std::istream& is)
{
    // A rejected line is named by its 1-based number.
    std::string line;
    if (!std::getline(is, line))
        fatal("trace: empty input");
    {
        std::istringstream hdr(line);
        std::string magic;
        u32 version = 0;
        hdr >> magic >> version;
        if (magic != "unimem-trace")
            fatal("trace: line 1: bad magic '%s'", magic.c_str());
        if (version != kTraceFormatVersion)
            fatal("trace: line 1: unsupported version %u", version);
    }
    if (!std::getline(is, line))
        fatal("trace: line 2: missing kernel header");
    {
        std::istringstream hdr(line);
        std::string kw, name, t;
        hdr >> kw >> name;
        if (kw != "kernel")
            fatal("trace: line 2: expected 'kernel', got '%s'", kw.c_str());
        params_.name = name;
        while (hdr >> kw) {
            u64 value = 0;
            if (!(hdr >> value))
                fatal("trace: line 2: missing value for '%s'", kw.c_str());
            if (value > 0xffffffffull)
                fatal("trace: line 2: value %llu for '%s' out of range",
                      static_cast<unsigned long long>(value), kw.c_str());
            if (kw == "regs")
                params_.regsPerThread = static_cast<u32>(value);
            else if (kw == "shared")
                params_.sharedBytesPerCta = static_cast<u32>(value);
            else if (kw == "cta")
                params_.ctaThreads = static_cast<u32>(value);
            else if (kw == "grid")
                params_.gridCtas = static_cast<u32>(value);
            else
                fatal("trace: line 2: unknown kernel attribute '%s'",
                      kw.c_str());
        }
    }
    params_.validate();

    std::vector<WarpInstr>* current = nullptr;
    WarpInstr* last_mem = nullptr; // memory op still owed its 'a' line
    unsigned long long line_no = 2;
    unsigned long long mem_line = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;
        if (last_mem != nullptr && kw != "a")
            fatal("trace: line %llu: memory op has no address line",
                  mem_line);
        if (kw == "warp") {
            u32 cta = 0, w = 0;
            if (!(ls >> cta >> w))
                fatal("trace: line %llu: malformed warp header", line_no);
            WarpKey key{cta, w};
            if (warps_.count(key))
                fatal("trace: line %llu: duplicate warp %u/%u", line_no,
                      cta, w);
            current = &warps_[key];
        } else if (kw == "i") {
            if (current == nullptr)
                fatal("trace: line %llu: instruction outside a warp block",
                      line_no);
            std::string opname;
            u32 dst, s0, s1, s2, bytes;
            u32 mask;
            ls >> opname >> dst >> s0 >> s1 >> s2 >> std::hex >> mask >>
                std::dec >> bytes;
            if (ls.fail())
                fatal("trace: line %llu: malformed instruction line '%s'",
                      line_no, line.c_str());
            WarpInstr in;
            in.op = opcodeFromName(opname, line_no);
            for (u32 r : {dst, s0, s1, s2})
                if (r >= kMaxArchRegs && r != kInvalidReg)
                    fatal("trace: line %llu: register %u out of range "
                          "(below %u, or %u for none)",
                          line_no, r, kMaxArchRegs, kInvalidReg);
            const bool size_ok =
                isMemOp(in.op) ? validAccessBytes(bytes) : bytes <= 0xff;
            if (!size_ok)
                fatal("trace: line %llu: access size %u out of range "
                      "(memory ops take 1, 2, 4, 8 or 16 bytes)",
                      line_no, bytes);
            in.dst = static_cast<RegId>(dst);
            in.src = {static_cast<RegId>(s0), static_cast<RegId>(s1),
                      static_cast<RegId>(s2)};
            in.numSrc = 0;
            for (RegId s : in.src)
                if (s != kInvalidReg)
                    ++in.numSrc;
            in.activeMask = mask;
            in.accessBytes = static_cast<u8>(bytes);
            current->push_back(in);
            if (isMemOp(in.op)) {
                last_mem = &current->back();
                last_mem->addr.fill(0); // 'a' lines set active lanes only
                mem_line = line_no;
            }
        } else if (kw == "a") {
            if (last_mem == nullptr)
                fatal("trace: line %llu: address line without a memory op",
                      line_no);
            for (u32 lane = 0; lane < kWarpWidth; ++lane) {
                if (!last_mem->laneActive(lane))
                    continue;
                u64 addr = 0;
                if (!(ls >> std::hex >> addr))
                    fatal("trace: line %llu: too few addresses", line_no);
                if (!accessInOneLine(addr, last_mem->accessBytes))
                    fatal("trace: line %llu: lane %u's %u-byte access at "
                          "%#llx crosses a 128-byte line",
                          line_no, lane,
                          static_cast<u32>(last_mem->accessBytes),
                          static_cast<unsigned long long>(addr));
                last_mem->addr[lane] = addr;
            }
            last_mem = nullptr;
        } else if (kw == "end") {
            current = nullptr;
        } else {
            fatal("trace: line %llu: unknown directive '%s'", line_no,
                  kw.c_str());
        }
    }
    if (last_mem != nullptr)
        fatal("trace: line %llu: memory op has no address line", mem_line);

    u64 expected =
        static_cast<u64>(params_.gridCtas) * params_.warpsPerCta();
    if (warps_.size() != expected)
        fatal("trace: found %zu warp streams, header implies %llu",
              warps_.size(), static_cast<unsigned long long>(expected));
}

std::unique_ptr<WarpProgram>
TraceFileKernel::warpProgram(const WarpCtx& ctx) const
{
    auto it = warps_.find(WarpKey{ctx.ctaId, ctx.warpInCta});
    if (it == warps_.end())
        fatal("trace: no stream for warp %u/%u", ctx.ctaId,
              ctx.warpInCta);
    return std::make_unique<FixedProgram>(it->second);
}

} // namespace unimem
