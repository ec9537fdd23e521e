#include "common/cli.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/log.hh"

namespace unimem {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::string& usage,
                 const std::vector<CliFlag>& flags)
    : CliArgs(argc, argv)
{
    accept(usage, flags);
}

CliArgs::CliArgs(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            std::string body = arg.substr(2);
            auto eq = body.find('=');
            if (eq == std::string::npos)
                flags_[body] = "true";
            else
                flags_[body.substr(0, eq)] = body.substr(eq + 1);
        } else {
            positional_.push_back(arg);
        }
    }
}

void
CliArgs::accept(const std::string& usage,
                const std::vector<CliFlag>& flags) const
{
    if (has("help")) {
        std::cout << usage << "\n";
        if (!flags.empty())
            std::cout << "\nflags:\n";
        for (const CliFlag& f : flags) {
            std::string spelled = std::string("--") + f.name;
            if (*f.value != '\0')
                spelled += std::string("=") + f.value;
            spelled.resize(std::max<size_t>(spelled.size() + 1, 22), ' ');
            std::cout << "  " << spelled << f.help << "\n";
        }
        std::exit(0);
    }
    std::string unknown;
    for (const auto& entry : flags_) {
        const std::string& name = entry.first;
        if (std::none_of(flags.begin(), flags.end(),
                         [&](const CliFlag& f) { return name == f.name; }))
            unknown += (unknown.empty() ? "--" : ", --") + name;
    }
    if (!unknown.empty())
        fatal("unknown flag %s (see --help)", unknown.c_str());
}

bool
CliArgs::has(const std::string& name) const
{
    return flags_.count(name) != 0;
}

std::string
CliArgs::getString(const std::string& name, const std::string& dflt) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? dflt : it->second;
}

long
CliArgs::getInt(const std::string& name, long dflt) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return dflt;
    char* end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        fatal("flag --%s expects an integer, got '%s'", name.c_str(),
              it->second.c_str());
    return v;
}

u32
CliArgs::getCount(const std::string& name, u32 dflt) const
{
    long v = getInt(name, dflt);
    if (v < 0 || static_cast<unsigned long>(v) > 0xffffffffUL)
        fatal("flag --%s expects a non-negative count, got '%s'",
              name.c_str(), getString(name, "").c_str());
    return static_cast<u32>(v);
}

u32
CliArgs::getCountIn(const std::string& name, u32 dflt, u32 lo, u32 hi) const
{
    if (!has(name))
        return dflt;
    long v = getInt(name, dflt);
    if (v < static_cast<long>(lo) || v > static_cast<long>(hi))
        fatal("flag --%s expects %u to %u, got %s", name.c_str(), lo, hi,
              getString(name, "").c_str());
    return static_cast<u32>(v);
}

double
CliArgs::getDouble(const std::string& name, double dflt) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return dflt;
    char* end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0')
        fatal("flag --%s expects a number, got '%s'", name.c_str(),
              it->second.c_str());
    return v;
}

bool
CliArgs::getBool(const std::string& name, bool dflt) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return dflt;
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("flag --%s expects a boolean, got '%s'", name.c_str(), v.c_str());
}

} // namespace unimem
